"""Exact optimal transport between discrete weight vectors, many problems at once.

`exact_costs` is the one entry point and makes every batching decision. It
checks each problem's weights once, by `_weights`, before it sorts the
problems by shape, then by index, so an error names the caller's index. It
cuts a batch where the arrays the solver keeps for it would pass
BATCH_BYTES; the caller only fills each problem's slot of one reused `+inf`
buffer. `transport_cost` is `exact_costs` on one problem. `_problem_bytes`
counts what each problem of a padded (M, N) batch holds: its float64 cost
block and flow block, its float64 `residual`, `pot` and `final` and its
`prev` over M + N nodes, its float64 `label`, `least` and `second` and its
`least_row` over N columns, and its slots of the solver's per-problem
vectors. A 20x20 problem with one-byte flows holds 5,141 bytes, so the
5 MiB budget runs the 900 problems of a 30x30 synthetic testbed in one
batch.

Min-cost flow on the dense bipartite transport graph, by successive shortest
paths with node potentials and a Dijkstra that steps by columns, as in
Jonker and Volgenant (1987); `_min_cost_flows` gives the details. Each
round starts from every column's least and second-least supply-row cost,
kept across rounds and taken again only for a problem whose source row
emptied, instead of relaxing every supply row again. Supplies are
cross-scaled to integers, so every augmentation is exact, and the flows are
held in the narrowest unsigned dtype of the stack's largest supply
(`flow_dtype`): uint8 below 256, uint64 at the 2**53 bound. Each flow
converts to float64 exactly. A batch runs in lockstep as one padded
(B, M, N) cost stack whose padding costs `+inf` and has no supply or demand,
so each problem gets the flows and bits it would get alone.
"""

from __future__ import annotations

import numpy as np

EXACT_TOTAL_LIMIT = 2**53  # float64 holds every integer up to here exactly
BATCH_BYTES = 5 << 20  # the arrays the solver keeps for one exact_costs batch, by _problem_bytes
SCAN_CHUNK_CELLS = 1 << 14  # bounds the (rank, problem, column) candidate array of a scan


def transport_cost(a, b, cost) -> float:
    """Minimum cost of moving distribution a onto b under the cost matrix of
    shape (len(a), len(b)), which must be finite; `exact_costs` on one problem."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != (len(a), len(b)):
        raise ValueError(f"problem 0: cost shape {cost.shape} does not match ({len(a)}, {len(b)})")
    if not np.isfinite(cost).all():
        raise ValueError("problem 0: transport costs must be finite")
    return float(exact_costs([a], [b], lambda _, slot: np.copyto(slot, cost))[0][0])


def flow_dtype(supply) -> np.dtype:
    """The dtype of the solver's flows on a stack whose largest cross-scaled
    supply (a row's weight times the other side's total) is `supply`."""
    return np.min_scalar_type(int(supply))


def exact_costs(weights_a, weights_b, fill) -> tuple[np.ndarray, dict]:
    """Minimum transport cost of every problem k, moving weights_a[k] onto
    weights_b[k] under the costs fill(k, slot) writes into its (len(a),
    len(b)) slot, or NaN where the slot is not all finite; and the counts of
    problems solved ("exact"), batches, lockstep rounds ("rounds"),
    augmenting paths ("augmentations") and lockstep search steps ("steps").

    Weights are nonnegative integers, as integer arrays or integral floats,
    with positive totals whose product is at most 2**53, so the cross-scaled
    supplies stay exact in float64. Each problem is checked once, before the
    sort, so a ValueError names the caller's k."""
    checked = [_weights(a, b, k) for k, (a, b) in enumerate(zip(weights_a, weights_b))]
    shapes = [(len(a), len(b), int(a.max(initial=0)) * tb) for a, b, _, tb in checked]
    order = sorted(range(len(shapes)), key=lambda k: shapes[k][:2])  # stable: by shape, then by index
    batches = list(_shape_batches([shapes[k] for k in order]))
    buffer = np.empty(max((b * m * n for _, (b, m, n) in batches), default=0))  # each batch's stack in turn
    costs = np.full(len(shapes), np.nan)
    counts = {"exact": 0, "batches": 0, "rounds": 0, "augmentations": 0, "steps": 0}
    done = 0
    for _, (b, m, n) in batches:
        cost = buffer[:b * m * n].reshape(b, m, n)
        cost.fill(np.inf)
        residual = np.zeros((b, m + n))  # cross-scaled supplies, then demands: integers with equal totals
        solved: list[int] = []
        for k in order[done:done + b]:
            wa, wb, ta, tb = checked[k]
            slot = cost[len(solved), :len(wa), :len(wb)]
            fill(k, slot)
            if np.isfinite(slot).all():
                residual[len(solved), :len(wa)], residual[len(solved), m:m + len(wb)] = wa * tb, wb * ta
                solved.append(k)
            else:  # the slot is padding again, for the next problem
                slot.fill(np.inf)
        done += b
        if solved:
            flow = _min_cost_flows(residual[:len(solved)], cost[:len(solved)], counts)
            for p, k in enumerate(solved):
                wa, wb, ta, tb = checked[k]
                costs[k] = (flow[p, :len(wa), :len(wb)] * cost[p, :len(wa), :len(wb)]).sum() / (ta * tb)
            counts["exact"] += len(solved)
            counts["batches"] += 1
    return costs, counts


def _shape_batches(problems):
    """The (m, n, supply) of each problem, in order, cut into batches, each
    with its padded stack shape (problems, largest m, largest n). Each
    problem of a batch holds the `_problem_bytes` of the batch's largest m,
    n and supply, within BATCH_BYTES; a batch is cut only where the next
    problem would break that budget."""
    batch: list[tuple[int, int, int]] = []
    big_m = big_n = big_supply = 0
    for problem in problems:
        m, n, supply = problem
        if batch and (len(batch) + 1) * _problem_bytes(
                max(big_m, m), max(big_n, n), max(big_supply, supply)) > BATCH_BYTES:
            yield batch, (len(batch), big_m, big_n)
            batch, big_m, big_n, big_supply = [], 0, 0, 0
        batch.append(problem)
        big_m, big_n, big_supply = max(big_m, m), max(big_n, n), max(big_supply, supply)
    if batch:
        yield batch, (len(batch), big_m, big_n)


def _problem_bytes(m: int, n: int, supply: int) -> int:
    """Bytes that one problem of a batch padded to (m, n), whose largest
    supply is `supply`, holds in `exact_costs` and `_min_cost_flows`: the
    cost and flow cells; `residual`, `pot`, `final` and `prev` per node;
    `label`, `least`, `second` and `least_row` per column; and `end`,
    `root`, `d_e`, `live`, `redo` and `bottleneck`. Masks and gathers that
    a round or step makes and drops are not counted."""
    flow = flow_dtype(supply).itemsize
    prev = np.min_scalar_type(-(m + n)).itemsize
    row = np.min_scalar_type(m).itemsize
    return m * n * (8 + flow) + (m + n) * (3 * 8 + prev) + n * (3 * 8 + row) + 5 * 8 + flow


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


def _column_minima(cost, supply) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's least cost over the supply rows, plus 0.0 as a scan adds
    it (so a -0.0 reads 0.0); the lowest row at that cost; and the least cost
    of the other supply rows. All (problems, N), inf where no row is left.
    cost is a (problems, M, N) copy of the problems' blocks and is
    overwritten; supply is (problems, M)."""
    cost[~supply] = np.inf
    row = cost.argmin(axis=1)
    least = cost.min(axis=1)
    cost[np.arange(len(cost))[:, None], row, np.arange(cost.shape[2])] = np.inf
    least += 0.0
    return least, row, cost.min(axis=1)


def _start_labels(least, second, col_pot, moved) -> tuple[np.ndarray, np.ndarray]:
    """Round-start column labels, from `_column_minima`, where every supply
    row has potential 0.0: a scan's candidate is ((0 + cost) + 0) - col_pot.
    Also, per problem, whether it must scan its supply rows instead: where a
    finite column's second-least candidate rounds to its least, the scan's
    lowest row may not be least_row, and where a supply row's potential has
    moved off 0.0 (`moved`, per problem), the labels are not these."""
    label = least - col_pot
    tied = second - col_pot
    tied = (tied == label) & (label < np.inf)
    return label, tied.any(axis=1) | moved


def _min_cost_flows(residual, cost, counts: dict) -> np.ndarray:
    """Successive shortest paths on a (B, M, N) cost stack; returns the flows,
    in the `flow_dtype` of the stack's largest supply. Every padded cell
    costs +inf; the stack is read, not written. residual holds each
    problem's supplies, then its demands, and is used up. counts["rounds"],
    counts["augmentations"] and counts["steps"] gain the lockstep rounds,
    augmenting paths and lockstep search steps.
    A round that places no flow raises RuntimeError.

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
    first. So a round finalizes all supply rows at 0 at once, and a step
    takes one `argmin` over column labels per searching problem and
    finalizes that column and, unless it stops there, its open flow rows at
    the reverse-arc distances. The rows a step finalizes relax their forward
    arcs together, one min per (problem, column) over a (rank, problem,
    column) candidate array, where the lowest row wins a tie; only the
    problems that reached a row take part. With exact distances, as under
    integer costs, this gives the flows of the node-by-node search bit for
    bit (tests/oracles.py keeps it); where round-off splits an exact tie by
    a few ulps, the two searches can order the tied nodes differently and a
    cost can differ in its last bits.

    A supply row keeps potential 0.0: a round adds min(0, d_e) to it, and
    only round-off puts an end column below 0. So a round starts each column
    from its least supply cost and that cost's row (`_column_minima`, taken
    again only for the problems whose source row emptied) instead of
    relaxing the supply rows. A problem where a column's two least
    candidates round equal, or a supply row's potential is not 0.0, relaxes
    them as a step does, so the lowest row still wins (`_start_labels`).

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
    # a column needs a new distance below its label by the 1e-15 margin, and
    # a final column takes none.
    label = np.empty((n_problems, n))
    # each column's least and second-least supply cost and the least's row, by _column_minima
    least, second = np.empty((n_problems, n)), np.empty((n_problems, n))
    least_row = np.empty((n_problems, n), dtype=np.min_scalar_type(m))
    redo = np.arange(n_problems)  # problems whose supply rows changed since their minima were taken
    end = np.zeros(n_problems, dtype=np.int64)  # the column node each search stops at
    root = np.zeros(n_problems, dtype=np.int64)  # the source row each path starts at
    bottleneck = np.zeros(n_problems, dtype=flow.dtype)
    cost_rows = cost.reshape(n_problems * m, n)  # the forward arc costs of (problem, row), one row each
    final_f, prev_f, pot_f, residual_f, label_f = (
        x.reshape(-1) for x in (final, prev, pot, residual, label))  # views
    row_final, row_pot, col_final, col_pot = final[:, :m], pot[:, :m], final[:, m:], pot[:, m:]
    rounds = steps = augmentations = 0

    def scan(q, k, i, d):
        """Finalize rows i of problems q[k] at distances d and relax their
        forward arcs; k ascending, each problem's rows ascending, and every
        problem holds a row. Problems go in chunks whose candidate arrays
        stay within SCAN_CHUNK_CELLS."""
        size = np.bincount(k, minlength=q.size)
        first = size.cumsum() - size  # each problem's first pair
        ranks = int(size.max())
        per = max(1, SCAN_CHUNK_CELLS // (ranks * n))
        for lo in range(0, q.size, per):
            hi = min(lo + per, q.size)
            a, b = first[lo], first[hi - 1] + size[hi - 1]
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
        best[col_final[q] < np.inf] = np.inf  # a final column takes no new label
        kk = (best < label[q] - 1e-15).ravel().nonzero()[0]
        g = kk // n
        j = kk - g * n
        label_f[q[g] * n + j] = best.ravel()[kk]
        del best  # before the tie-break's gather, as row above
        by = first[g]  # the pair whose row is the column's new predecessor
        if ranks > 1:
            by += cand[:, g, j].argmin(axis=0)
        prev_f[q[g] * w + m + j] = i[by]

    while True:
        supply = residual[:, :m] > 0
        held = supply.any(axis=1)
        live = held.nonzero()[0]  # supply left to place
        if not live.size:
            counts["rounds"] += rounds
            counts["augmentations"] += augmentations
            counts["steps"] += steps
            return flow
        rounds += 1
        augmentations += live.size
        label.fill(np.inf)
        final.fill(np.inf)
        prev.fill(-1)
        redo = redo[held[redo]]  # a problem with no supply left needs no minima
        per = max(1, SCAN_CHUNK_CELLS // (m * n))  # problems at a time: the (problem, row) arrays stay small
        for lo in range(0, redo.size, per):
            q = redo[lo:lo + per]
            least[q], least_row[q], second[q] = _column_minima(cost[q], supply[q])
        row_final[supply] = 0.0  # every supply row is final at 0
        moved = ((row_pot[live] != 0) & supply[live]).any(axis=1)
        label[live], scans = _start_labels(least[live], second[live], col_pot[live], moved)
        prev[live, m:] = least_row[live]  # read only for a column that gets final, at a finite label
        q = live[scans]
        label[q], prev[q, m:] = np.inf, -1  # these problems scan their supply rows
        for lo in range(0, q.size, per):
            pairs = supply[q[lo:lo + per]].ravel().nonzero()[0]
            k = pairs // m
            scan(q[lo:lo + per], k, pairs - k * m, np.zeros(pairs.size))
        s = live  # problems still searching
        while s.size:
            steps += 1
            j = label[s].argmin(axis=1)
            at = s * n + j
            d = label_f[at]
            if (d == np.inf).any():
                raise RuntimeError("transport problem infeasible")
            u = s * w + m + j
            final_f[u], label_f[at] = d, np.inf
            stop = residual_f[u] > 0
            end[s[stop]] = m + j[stop]
            go = ~stop
            s, j, d, u = s[go], j[go], d[go], u[go]
            # reverse arcs to the rows that send flow into the column and are not final
            reach = flow[s, :, j] > 0
            reach &= row_final[s] == np.inf
            pairs = np.flatnonzero(reach)
            if pairs.size:
                kh = pairs // m
                i = pairs - kh * m
                sk, jk = s[kh], j[kh]
                nd = d[kh] - (cost[sk, i, jk] + pot[sk, i] - pot_f[u[kh]])
                prev_f[sk * w + i] = m + jk
                new = np.empty(kh.size, dtype=bool)  # only the problems that reached a row scan
                new[0] = True
                np.not_equal(kh[1:], kh[:-1], out=new[1:])
                scan(s[kh[new]], new.cumsum() - 1, i, nd)
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
        redo = live[residual[live, start] == 0]
