"""Exact optimal transport between discrete weight vectors, many problems at once.

Min-cost flow on the dense bipartite transport graph, by successive shortest
paths with node potentials and a Dijkstra that steps by columns, as in
Jonker and Volgenant (1987); `_min_cost_flows` gives the details. Supplies
are cross-scaled to integers, so every augmentation is exact, and the flows
are held in the narrowest unsigned dtype of the stack's largest supply
(`flow_dtype`): uint8 below 256, uint64 at the 2**53 bound. Each flow
converts to float64 exactly. A batch runs in lockstep as one padded
(B, M, N) cost stack whose padding costs `+inf` and has no supply or demand,
so each problem gets the flows and bits it would get alone.
`stacked_transport_costs` is the one solver entry point and checks each
problem's input once; `transport_cost` is a stack of one.

`exact_costs` makes every batching decision: it checks each problem's
weights by the solver's rules (`_weights`), sorts problems by shape, then
by index, and cuts a batch where its padded float64 cost stack plus its
flow stack would pass BATCH_BYTES; the caller only fills each problem's slot
of one reused `+inf` buffer. The budget leaves out the solver's (B, M + N)
float64 `residual`, `pot` and `final` and (B, N) `label` and `limit`: 1,280
bytes beside a 20x20 problem's 3,200-byte cost block. Counting them would
cut 900 such problems into 3 batches instead of 2.
"""

from __future__ import annotations

import numpy as np

EXACT_TOTAL_LIMIT = 2**53  # float64 holds every integer up to here exactly
BATCH_BYTES = 2 << 20  # padded cost stack plus flow stack of one exact_costs batch
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


def exact_costs(weights_a, weights_b, fill) -> tuple[np.ndarray, dict]:
    """Minimum transport cost of every problem k, moving the integer array
    weights_a[k] onto weights_b[k] under the costs fill(k, slot) writes into
    its (len(a), len(b)) slot, by the rules of `stacked_transport_costs`, or
    NaN where the slot is not all finite; and the counts of problems solved
    ("exact"), batches, augmenting paths ("augmentations") and search steps.
    Weights are checked before the sort, so a ValueError names the caller's k."""
    checked = [_weights(a, b, k) for k, (a, b) in enumerate(zip(weights_a, weights_b))]
    shapes = [(len(a), len(b), int(a.max(initial=0)) * tb) for a, b, _, tb in checked]
    order = sorted(range(len(shapes)), key=lambda k: shapes[k][:2])  # stable: by shape, then by index
    batches = list(_shape_batches([shapes[k] for k in order]))
    buffer = np.empty(max((b * m * n for _, (b, m, n) in batches), default=0))  # each batch's stack in turn
    costs = np.full(len(shapes), np.nan)
    counts = {"exact": 0, "batches": 0, "augmentations": 0, "steps": 0}
    done = 0
    for _, (b, m, n) in batches:
        cost = buffer[:b * m * n].reshape(b, m, n)
        cost.fill(np.inf)
        solved: list[int] = []
        for k in order[done:done + b]:
            slot = cost[len(solved), :shapes[k][0], :shapes[k][1]]
            fill(k, slot)
            if np.isfinite(slot).all():
                solved.append(k)
            else:  # the slot is padding again, for the next problem
                slot.fill(np.inf)
        done += b
        if solved:
            costs[solved] = stacked_transport_costs(
                cost[:len(solved)], [weights_a[k] for k in solved], [weights_b[k] for k in solved], counts)
            counts["exact"] += len(solved)
            counts["batches"] += 1
    return costs, counts


def _shape_batches(problems):
    """The (m, n, supply) of each problem, in order, cut into batches, each
    with its padded stack shape (problems, largest m, largest n). A batch's
    padded cells each hold a float64 cost and a flow of the `flow_dtype` of
    its largest supply, within BATCH_BYTES; a batch is cut only where the
    next problem would break that budget."""
    batch: list[tuple[int, int, int]] = []
    big_m = big_n = big_supply = 0
    for problem in problems:
        m, n, supply = problem
        cell = 8 + flow_dtype(max(big_supply, supply)).itemsize  # bytes of a padded cell's cost and flow
        if batch and (len(batch) + 1) * max(big_m, m) * max(big_n, n) * cell > BATCH_BYTES:
            yield batch, (len(batch), big_m, big_n)
            batch, big_m, big_n, big_supply = [], 0, 0, 0
        batch.append(problem)
        big_m, big_n, big_supply = max(big_m, m), max(big_n, n), max(big_supply, supply)
    if batch:
        yield batch, (len(batch), big_m, big_n)


def _weights(a, b, k: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Problem k's two weight vectors as int64, and their totals; ValueError
    unless both are nonnegative integers with positive totals whose product
    is at most EXACT_TOTAL_LIMIT."""
    cast = []
    for w in map(np.asarray, (a, b)):
        with np.errstate(invalid="ignore"):  # NaN, inf and huge floats cast to garbage, caught below
            c = w.astype(np.int64, copy=False) if w.dtype.kind in "iuf" else None
        if c is None or (w.dtype.kind == "f" and not np.array_equal(c, w)) or (c.size and c.min() < 0):
            raise ValueError(f"problem {k}: weights must be nonnegative integers")
        cast.append(c)
    ta, tb = int(cast[0].sum()), int(cast[1].sum())
    if ta <= 0 or tb <= 0:
        raise ValueError(f"problem {k}: both weight vectors must have positive total")
    if ta * tb > EXACT_TOTAL_LIMIT:
        raise ValueError(f"problem {k}: weight totals {ta} * {tb} exceed the exact bound 2**53")
    return cast[0], cast[1], ta, tb


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
        a, b, ta, tb = _weights(a, b, k)
        if len(a) > big_m or len(b) > big_n:
            raise ValueError(f"problem {k}: weights ({len(a)}, {len(b)}) do not match stack ({big_m}, {big_n})")
        if not np.isfinite(cost[k, :len(a), :len(b)]).all():
            raise ValueError(f"problem {k}: transport costs must be finite")
        residual[k, :len(a)], residual[k, big_m:big_m + len(b)] = a * tb, b * ta
        shapes.append((len(a), len(b), ta * tb))
    flow = _min_cost_flows(residual, cost, counts)
    return np.array([(flow[k, :m, :n] * cost[k, :m, :n]).sum() / total
                     for k, (m, n, total) in enumerate(shapes)])


def _min_cost_flows(residual, cost, counts: dict | None = None) -> np.ndarray:
    """Successive shortest paths on a (B, M, N) cost stack; returns the flows,
    in the `flow_dtype` of the stack's largest supply. residual holds each
    problem's supplies, then its demands, and is used up; counts as in
    `stacked_transport_costs`. A round that places no flow raises RuntimeError.

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

    The search steps by columns. Every supply row starts at 0; any other row
    is reached only backwards, from a column it sends flow to, and in exact
    arithmetic sits at that column's distance, as a flow-carrying arc has
    reduced cost 0 after a potential update. As rows win ties, such rows are
    the next nodes of a node-by-node search, as the supply rows are its
    first. So a round finalizes all supply rows at once, and a step takes one
    `argmin` over column labels per searching problem and finalizes that
    column and, unless it stops there, its open flow rows at the reverse-arc
    distances. The rows a round or step finalizes relax their forward arcs
    together, one min per (problem, column) over a (rank, problem, column)
    candidate array, where the lowest row wins a tie. With exact distances,
    as under integer costs, this gives the flows of the node-by-node search
    bit for bit (tests/oracles.py keeps it); where round-off splits an exact
    tie by a few ulps, the two searches can order the tied nodes differently
    and a cost can differ in its last bits.

    Every array keeps one row per problem, so a finished problem costs no
    copy; it drops out of the index of live problems. Node u of problem p has
    the flat index p * (M + N) + u, and column j the label index p * N + j.
    Predecessors are node indices or -1, in the narrowest signed dtype."""
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
        for lo in range(0, q.size, per):
            hi = min(lo + per, q.size)
            a, b = first[lo], first[hi - 1] + size[hi - 1]
            if b > a:
                _scan(q[lo:hi], k[a:b] - lo, i[a:b], d[a:b], first[lo:hi] - a, ranks)

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
        if not bottleneck[live].all():  # the round would repeat forever
            raise RuntimeError("transport round placed no flow")
        for t, i, col in forward:
            flow[t, i, col] += bottleneck[t]
        for t, i, col in backward:
            flow[t, i, col] -= bottleneck[t]
        residual[live, start] -= bottleneck[live]
        residual[live, e] -= bottleneck[live]
