"""Exact optimal transport between discrete weight vectors, many problems at once.

Min-cost flow on the dense bipartite transport graph, solved by successive
shortest paths with node potentials: Dijkstra on reduced costs over m + n
nodes (row i is node i, column j is node m + j) that steps by columns. A
round finalizes every supply row at once; each step then finalizes the
`argmin` column label together with the rows that send flow into that
column, as in the shortest-augmenting-path scheme of Jonker and Volgenant
(1987). Supplies are cross-scaled to integers so every augmentation is
exact; the final cost is rescaled back to the probability simplex. No
flow exceeds its row's supply, so the flows are held as unsigned integers
of the narrowest dtype that holds the stack's largest cross-scaled supply
(`flow_dtype`): uint8 while every supply is below 256, uint64 at the 2**53
bound. Every flow converts to float64 exactly, so no cost depends on the
flows' dtype.

A batch of problems runs in lockstep: every step takes one `argmin` per
problem, every augmentation traces all paths together, and a problem
leaves the batch once its supply is placed. The batch is one padded
(B, M, N) cost stack: problem k's costs fill cost[k, :m_k, :n_k] and every
other cell is `+inf`, and padded nodes have zero supply and demand, so a
padded node never gets a finite label; each problem gets the flows and the
bits it would get alone. `stacked_transport_costs` is the one entry point
and checks each problem's input once; `transport_cost` is a stack of one.
"""

from __future__ import annotations

import numpy as np

EXACT_TOTAL_LIMIT = 2**53  # float64 holds every integer up to here exactly
SCAN_CHUNK_CELLS = 1 << 14  # bounds the (rank, problem, column) candidate array of a scan


def transport_cost(a, b, cost) -> float:
    """Minimum cost of moving distribution a onto b under the cost matrix of
    shape (len(a), len(b)); `stacked_transport_costs` on a stack of one."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != (len(a), len(b)):
        raise ValueError(f"problem 0: cost shape {cost.shape} does not match ({len(a)}, {len(b)})")
    return float(stacked_transport_costs(cost[None], [a], [b])[0])


def flow_dtype(supply) -> np.dtype:
    """The dtype of the solver's flows on a stack whose largest cross-scaled
    supply (a row's weight times the other side's total) is `supply`."""
    return np.min_scalar_type(int(supply))


def _weights(w, k: int) -> np.ndarray:
    """Problem k's weights as int64; ValueError unless nonnegative integers."""
    w = np.asarray(w)
    with np.errstate(invalid="ignore"):  # NaN, inf and huge floats cast to garbage, caught below
        cast = w.astype(np.int64, copy=False) if w.dtype.kind in "iuf" else None
    if cast is None or (w.dtype.kind == "f" and not np.array_equal(cast, w)) or (cast.size and cast.min() < 0):
        raise ValueError(f"problem {k}: weights must be nonnegative integers")
    return cast


def stacked_transport_costs(cost: np.ndarray, weights_a, weights_b, counts: dict | None = None) -> np.ndarray:
    """Minimum transport cost of each problem of a padded (B, M, N) cost stack.

    Problem k moves weights_a[k] onto weights_b[k] under the costs
    cost[k, :len(a), :len(b)]; every other cell must be +inf. Weights are
    nonnegative integers, as integer arrays or integral floats; only their
    proportions matter. Each problem's costs must be finite, both its totals
    positive and their product at most 2**53, so that the cross-scaled
    supplies stay exact in float64 and fit uint64. A problem that breaks
    these rules, or does not fit the stack, raises ValueError naming its
    index k. The stack is read, not written; an empty stack gives an empty array.
    counts, when given, gains the solver's augmenting paths ("augmentations")
    and lockstep search steps ("steps").
    """
    n_problems, big_m, big_n = cost.shape
    if len(weights_a) != n_problems or len(weights_b) != n_problems:
        raise ValueError(f"{n_problems} problems, but {len(weights_a)} and {len(weights_b)} weight vectors")
    # Cross-scaled supplies, then demands: integers with equal totals.
    residual = np.zeros((n_problems, big_m + big_n))
    shapes = []  # (m, n, total) of each problem
    for k, (a, b) in enumerate(zip(weights_a, weights_b)):
        a, b = _weights(a, k), _weights(b, k)
        if len(a) > big_m or len(b) > big_n:
            raise ValueError(f"problem {k}: weights ({len(a)}, {len(b)}) do not match stack ({big_m}, {big_n})")
        if not np.isfinite(cost[k, :len(a), :len(b)]).all():
            raise ValueError(f"problem {k}: transport costs must be finite")
        ta, tb = int(a.sum()), int(b.sum())
        if ta <= 0 or tb <= 0:
            raise ValueError(f"problem {k}: both weight vectors must have positive total")
        if ta * tb > EXACT_TOTAL_LIMIT:
            raise ValueError(f"problem {k}: weight totals {ta} * {tb} exceed the exact bound 2**53")
        residual[k, :len(a)], residual[k, big_m:big_m + len(b)] = a * tb, b * ta
        shapes.append((len(a), len(b), ta * tb))
    flow = _min_cost_flows(residual, cost, counts)
    return np.array([(flow[k, :m, :n] * cost[k, :m, :n]).sum() / total
                     for k, (m, n, total) in enumerate(shapes)])


def _min_cost_flows(residual, cost, counts: dict | None = None) -> np.ndarray:
    """Successive shortest paths on a (B, M, N) cost stack; returns the flows,
    in the `flow_dtype` of the stack's largest supply. residual holds each
    problem's supplies, then its demands, and is used up.
    counts, when given, gains the augmenting paths ("augmentations") and
    the lockstep search steps ("steps").

    Reduced cost of the forward arc i->j is cost[i,j] + pot[i] - pot[M+j];
    flow-carrying arcs admit the reverse arc at the negated reduced cost.
    Potentials keep all reduced costs nonnegative so Dijkstra stays valid
    with float costs. Nodes are finalized in Dijkstra order, rows before
    columns and lower indices first on ties, and a node is relabelled only
    while not final and only when the new distance beats its label by the
    1e-15 margin: round-off can make a reduced cost slightly negative, and
    relabelling a finalized node would put a cycle into the predecessor
    chain. A problem's search stops at its first finalized column with
    demand left.

    The search steps by columns. Every supply row starts at 0, and a
    non-supply row is reached only backwards, from a column it sends flow
    to. In exact arithmetic every flow-carrying arc has reduced cost 0 after
    a potential update, so those rows sit at the column's distance and,
    rows winning ties, are the next nodes of a node-by-node search, as the
    supply rows are its first. So each round finalizes all supply rows at
    once, and each step takes one `argmin` over column labels per searching
    problem, finalizes that column and, unless it stops there, its open
    flow rows at the reverse-arc distances, then relaxes those rows'
    forward arcs. The rows a round or step finalizes relax together, as one
    min per (problem, column) over a (rank, problem, column) candidate
    array; the lowest row wins a tie, as when the rows went one at a time.
    With exact distances, as under integer costs, this gives the flows of
    the node-by-node search bit for bit (tests/oracles.py keeps it). Where
    round-off splits distances that tie exactly by a few ulps, the two
    searches can order the tied nodes differently, and a cost can differ in
    its last bits.

    Every array keeps one row per problem of the batch, so a finished
    problem costs no copy; it only drops out of the index of live problems.
    Node u of problem p has the flat index p * (M + N) + u; column j of
    problem p has the flat label index p * N + j. Predecessors are node
    indices or -1, held in the narrowest signed dtype."""
    n_problems, m, n = cost.shape
    w = m + n
    # A flow never exceeds its row's supply; each is an exact integer.
    flow = np.zeros((n_problems, m, n), dtype=flow_dtype(residual[:, :m].max(initial=0)))
    pot = np.zeros((n_problems, w))
    final = np.empty((n_problems, w))  # the distance of final nodes, inf before
    prev = np.empty((n_problems, w), dtype=np.min_scalar_type(-w))  # node the best path came from
    # label: the distance of columns not yet final, inf once final. Relaxing
    # a column needs a new distance below its label by the 1e-15 margin;
    # limit holds that bound, -inf once the column is final.
    label, limit = np.empty((n_problems, n)), np.empty((n_problems, n))
    end = np.zeros(n_problems, dtype=np.int64)  # the column node each search stops at
    root = np.zeros(n_problems, dtype=np.int64)  # the source row each path starts at
    bottleneck = np.zeros(n_problems, dtype=flow.dtype)
    cost_rows = cost.reshape(n_problems * m, n)  # the forward arc costs of (problem, row), one row each
    final_f, prev_f, pot_f, residual_f, label_f, limit_f = (
        x.reshape(-1) for x in (final, prev, pot, residual, label, limit))  # views
    row_final, col_pot = final[:, :m], pot[:, m:]
    steps = augmentations = 0

    def scan(q, k, i, d):
        """Finalize rows i of problems q[k] at distances d and relax their
        forward arcs; k ascending, each problem's rows ascending. Problems go
        in chunks whose candidate arrays stay within SCAN_CHUNK_CELLS."""
        size = np.bincount(k, minlength=q.size)
        first = size.cumsum() - size  # each problem's first pair
        ranks = int(size.max())
        per = max(1, SCAN_CHUNK_CELLS // (ranks * n))
        if per >= q.size:
            return _scan(q, k, i, d, first, ranks)
        for lo in range(0, q.size, per):
            hi = min(lo + per, q.size)
            a, b = first[lo], first[hi - 1] + size[hi - 1]
            if b > a:
                _scan(q[lo:hi], k[a:b] - lo, i[a:b], d[a:b], first[lo:hi] - a, int(size[lo:hi].max()))

    def _scan(q, k, i, d, first, ranks):
        p = q[k]
        at = p * w + i
        final_f[at] = d
        row = cost_rows[p * m + i]  # ((d + cost) + pot_row) - pot_col, in place;
        row += d[:, None]  # cost + d is d + cost, bit for bit
        row += pot_f[at][:, None]
        cand = np.full((ranks, q.size, n), np.inf)  # padding stays +inf
        cand[np.arange(k.size) - first[k], k] = row
        del row  # before cand's temporaries: the solver's traced peak stays within one stack
        cand -= col_pot[q]
        best = cand.min(axis=0)
        kk = (best < limit[q]).ravel().nonzero()[0]
        g = kk // n
        j = kk - g * n
        nd = best.ravel()[kk]
        by = first[g]  # the pair whose row is the column's new predecessor
        if ranks > 1:
            by += (cand == best).transpose(1, 2, 0)[g, j].argmax(axis=1)
        at = q[g] * n + j
        label_f[at], limit_f[at] = nd, nd - 1e-15
        prev_f[q[g] * w + m + j] = i[by]

    while True:
        supply = residual[:, :m] > 0
        live = supply.any(axis=1).nonzero()[0]  # supply left to place
        if not live.size:
            if counts is not None:
                counts["augmentations"] = counts.get("augmentations", 0) + augmentations
                counts["steps"] = counts.get("steps", 0) + steps
            return flow
        augmentations += live.size
        label.fill(np.inf)
        limit.fill(np.inf)
        final.fill(np.inf)
        prev.fill(-1)
        per = max(1, SCAN_CHUNK_CELLS // (m * n))  # problems at a time: the round's (problem, row) arrays stay small
        for lo in range(0, live.size, per):
            q = live[lo:lo + per]
            pairs = supply[q].ravel().nonzero()[0]  # every supply row is final at 0
            k = pairs // m
            scan(q, k, pairs - k * m, np.zeros(pairs.size))
        s = live  # problems still searching
        while s.size:
            steps += 1
            j = label[s].argmin(axis=1)
            at = s * n + j
            d = label_f[at]
            if (d == np.inf).any():
                raise RuntimeError("transport problem infeasible")
            u = s * w + m + j
            final_f[u], label_f[at], limit_f[at] = d, np.inf, -np.inf
            stop = residual_f[u] > 0
            end[s[stop]] = m + j[stop]
            go = ~stop
            s, j, d, u = s[go], j[go], d[go], u[go]
            # reverse arcs to the rows that send flow into the column and are not final
            reach = flow[s, :, j] > 0
            reach &= row_final[s] == np.inf
            pairs = reach.ravel().nonzero()[0]
            if pairs.size:
                k = pairs // m
                i = pairs - k * m
                sk, jk = s[k], j[k]
                nd = d[k] - (cost[sk, i, jk] + pot[sk, i] - pot_f[u[k]])
                prev_f[sk * w + i] = m + jk
                scan(s, k, i, nd)
        e = end[live]
        d_e = np.full((n_problems, 1), np.inf)
        d_e[live, 0] = final[live, e]
        # In place, with no (live, M + N) copies: final is refilled each
        # round, and a problem that did not search (d_e inf) keeps its pot.
        np.minimum(final, d_e, out=final)  # nodes not final are >= d_e
        np.add(pot, final, out=pot, where=d_e < np.inf)

        # Trace every augmenting path back to a source row, in lockstep; each
        # path alternates forward arcs (row -> column) and backward arcs.
        forward, backward = [], []  # (problem, row, column) per arc, in arrays
        t, j = live, e
        while t.size:
            i = prev[t, j]
            forward.append((t, i, j - m))
            source = prev[t, i] < 0
            root[t[source]] = i[source]
            t, i = t[~source], i[~source]
            j = prev[t, i]
            backward.append((t, i, j - m))
        start = root[live]
        # min with the source's supply before the cast: a demand alone may not fit the flows' dtype
        bottleneck[live] = np.minimum(residual[live, start], residual[live, e])
        for t, i, col in backward:
            bottleneck[t] = np.minimum(bottleneck[t], flow[t, i, col])
        for t, i, col in forward:
            flow[t, i, col] += bottleneck[t]
        for t, i, col in backward:
            flow[t, i, col] -= bottleneck[t]
        residual[live, start] -= bottleneck[live]
        residual[live, e] -= bottleneck[live]
