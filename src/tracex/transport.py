"""Exact optimal transport between discrete weight vectors, many problems at once.

Min-cost flow on the dense bipartite transport graph, solved by successive
shortest paths with node potentials: Dijkstra on reduced costs over one
label array of m + n nodes (row i is node i, column j is node m + j), each
step finalizing the `argmin` label. Supplies are cross-scaled to integers so
every augmentation is exact; the final cost is rescaled back to the
probability simplex.

A batch of problems runs in lockstep: every Dijkstra step takes one
`argmin` per problem, every augmentation traces all paths together, and a
problem leaves the batch once its supply is placed. The batch is one padded
(B, M, N) cost stack: problem k's costs fill cost[k, :m_k, :n_k] and every
other cell is `+inf`, and padded nodes have zero supply and demand, so a
padded node never gets a finite label; each problem gets the flows and the
bits it would get alone. `stacked_transport_costs` is the one entry point
and checks each problem's input once; `transport_cost` is a stack of one.
"""

from __future__ import annotations

import numpy as np

EXACT_TOTAL_LIMIT = 2**53  # float64 holds every integer up to here exactly


def transport_cost(a, b, cost) -> float:
    """Minimum cost of moving distribution a onto b under the cost matrix of
    shape (len(a), len(b)); `stacked_transport_costs` on a stack of one."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != (len(a), len(b)):
        raise ValueError(f"problem 0: cost shape {cost.shape} does not match ({len(a)}, {len(b)})")
    return float(stacked_transport_costs(cost[None], [a], [b])[0])


def _weights(w, k: int) -> np.ndarray:
    """Problem k's weights as int64; ValueError unless nonnegative integers."""
    w = np.asarray(w)
    with np.errstate(invalid="ignore"):  # NaN, inf and huge floats cast to garbage, caught below
        cast = w.astype(np.int64, copy=False) if w.dtype.kind in "iuf" else None
    if cast is None or (w.dtype.kind == "f" and not np.array_equal(cast, w)) or (cast.size and cast.min() < 0):
        raise ValueError(f"problem {k}: weights must be nonnegative integers")
    return cast


def stacked_transport_costs(cost: np.ndarray, weights_a, weights_b) -> np.ndarray:
    """Minimum transport cost of each problem of a padded (B, M, N) cost stack.

    Problem k moves weights_a[k] onto weights_b[k] under the costs
    cost[k, :len(a), :len(b)]; every other cell must be +inf. Weights are
    nonnegative integers, as integer arrays or integral floats; only their
    proportions matter. Each problem's costs must be finite, both its totals
    positive and their product at most 2**53, so that the cross-scaled
    supplies and every flow stay exact in float64. A problem that breaks
    these rules, or does not fit the stack, raises ValueError naming its
    index k. The stack is read, not written; an empty stack gives an empty array.
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
    flow = _min_cost_flows(residual, cost)
    return np.array([(flow[k, :m, :n] * cost[k, :m, :n]).sum() / total
                     for k, (m, n, total) in enumerate(shapes)])


def _min_cost_flows(residual, cost) -> np.ndarray:
    """Successive shortest paths on a (B, M, N) cost stack; returns the flows.
    residual holds each problem's supplies, then its demands, and is used up.

    Reduced cost of the forward arc i->j is cost[i,j] + pot[i] - pot[M+j];
    flow-carrying arcs admit the reverse arc at the negated reduced cost.
    Potentials keep all reduced costs nonnegative so Dijkstra stays valid
    with float costs. Ties finalize rows before columns and lower indices
    first. Only nodes not yet finalized are relaxed: round-off can make a
    reduced cost slightly negative, and relabelling a finalized node would
    put a cycle into the predecessor chain. A problem's search stops at its
    first finalized column with demand left.

    Every array keeps one row per problem of the batch, so a finished
    problem costs no copy; it only drops out of the index of live problems.
    Node u of problem p has the flat index p * (M + N) + u."""
    n_problems, m, n = cost.shape
    w = m + n
    flow = np.zeros((n_problems, m, n))
    pot = np.zeros((n_problems, w))
    # label: the distance of nodes not yet final, inf once final. final: the
    # distance of final nodes, inf before. Relaxing a node needs a new
    # distance below its label by the 1e-15 margin; limit holds that bound,
    # -inf once the node is final.
    label, limit, final = (np.empty((n_problems, w)) for _ in range(3))
    prev = np.empty((n_problems, w), dtype=np.int64)  # node the best path came from
    end = np.zeros(n_problems, dtype=np.int64)  # the column node each search stops at
    root = np.zeros(n_problems, dtype=np.int64)  # the source row each path starts at
    bottleneck = np.zeros(n_problems)
    cost_rows = cost.reshape(n_problems * m, n)  # the forward arc costs of (problem, row), one row each
    label_f, limit_f, final_f, prev_f, pot_f, residual_f = (
        x.reshape(-1) for x in (label, limit, final, prev, pot, residual))  # views

    while True:
        live = np.flatnonzero((residual[:, :m] > 0).any(axis=1))  # supply left to place
        if not live.size:
            return flow
        label.fill(np.inf)
        label[:, :m][residual[:, :m] > 0] = 0.0
        np.subtract(label, 1e-15, out=limit)
        final.fill(np.inf)
        prev.fill(-1)
        s = live  # problems still searching
        while s.size:
            u = label.argmin(axis=1)[s]
            at = s * w + u
            d = label_f[at]
            if (d == np.inf).any():
                raise RuntimeError("transport problem infeasible")
            final_f[at], label_f[at], limit_f[at] = d, np.inf, -np.inf
            row = u < m
            stop = ~row & (residual_f[at] > 0)

            r, ur = s[row], u[row]  # forward arcs to every column
            if r.size:
                nd = d[row][:, None] + cost_rows[r * m + ur] + pot_f[at[row]][:, None] - pot[r, m:]
                better = np.flatnonzero(nd < limit[r, m:])
                k = better // n  # flat index in nd -> flat index of the column node
                to = better + (r * w + m - np.arange(r.size) * n)[k]
                nd = nd.reshape(-1)[better]
                label_f[to], limit_f[to], prev_f[to] = nd, nd - 1e-15, ur[k]

            scan = ~(row | stop)  # reverse arcs to the rows that send flow into the column
            c, uc = s[scan], u[scan]
            if c.size:
                nd = d[scan][:, None] - (cost[c, :, uc - m] + pot[c, :m] - pot_f[at[scan]][:, None])
                better = np.flatnonzero((flow[c, :, uc - m] > 0) & (nd < limit[c, :m]))
                k = better // m
                to = better + (c * w - np.arange(c.size) * m)[k]
                nd = nd.reshape(-1)[better]
                label_f[to], limit_f[to], prev_f[to] = nd, nd - 1e-15, uc[k]

            end[s[stop]] = u[stop]
            s = s[~stop]
        e = end[live]
        pot[live] += np.minimum(final[live], final[live, e][:, None])  # labels not final are >= d_e

        # Trace every augmenting path back to a source row, in lockstep; each
        # path alternates forward arcs (row -> column) and backward arcs.
        bottleneck[live] = residual[live, e]
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
            bottleneck[t] = np.minimum(bottleneck[t], flow[t, i, j - m])
        start = root[live]
        bottleneck[live] = np.minimum(bottleneck[live], residual[live, start])
        for t, i, col in forward:
            flow[t, i, col] += bottleneck[t]
        for t, i, col in backward:
            flow[t, i, col] -= bottleneck[t]
        residual[live, start] -= bottleneck[live]
        residual[live, e] -= bottleneck[live]
