"""Exact optimal transport between two discrete weight vectors.

Min-cost flow on the dense bipartite transport graph, solved by successive
shortest paths with node potentials: Dijkstra on reduced costs over one
label array of m + n nodes (row i is node i, column j is node m + j), each
step finalizing the `argmin` label. Supplies are cross-scaled to integers so
every augmentation is exact; the final cost is rescaled back to the
probability simplex.
"""

from __future__ import annotations

import numpy as np

EXACT_TOTAL_LIMIT = 2**53  # float64 holds every integer up to here exactly


def transport_cost(a, b, cost) -> float:
    """Minimum cost of moving distribution a onto b under the cost matrix.

    a and b are nonnegative integer weight vectors; they are normalized
    internally, so only their proportions matter. Every cost must be finite,
    and the product of the two totals at most 2**53, so that the cross-scaled
    supplies and every flow stay exact in float64.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape != (len(a), len(b)):
        raise ValueError(f"cost shape {cost.shape} does not match ({len(a)}, {len(b)})")
    if not np.isfinite(cost).all():
        raise ValueError("transport costs must be finite")
    ta, tb = int(a.sum()), int(b.sum())
    if ta <= 0 or tb <= 0:
        raise ValueError("both weight vectors must have positive total")
    if ta * tb > EXACT_TOTAL_LIMIT:
        raise ValueError(f"weight totals {ta} * {tb} exceed the exact bound 2**53")

    # Cross-scale so supplies and demands are integers with equal totals.
    plan = _min_cost_transport(a * tb, b * ta, cost)
    return float((plan * cost).sum() / (ta * tb))


def _min_cost_transport(supply, demand, cost) -> np.ndarray:
    """Successive shortest paths. Reduced cost of the forward arc i->j is
    cost[i,j] + pot[i] - pot[m+j]; flow-carrying arcs admit the reverse arc
    at the negated reduced cost. Potentials keep all reduced costs
    nonnegative so Dijkstra stays valid with float costs. Ties finalize rows
    before columns and lower indices first. Only nodes not yet finalized are
    relaxed: round-off can make a reduced cost slightly negative, and
    relabelling a finalized node would put a cycle into the predecessor
    chain. The search stops at the first finalized column with demand left."""
    m, n = cost.shape
    flow = np.zeros((m, n))
    residual = np.concatenate([supply, demand]).astype(np.float64)  # rows, then columns
    pot = np.zeros(m + n)

    while (residual[:m] > 0).any():
        dist = np.full(m + n, np.inf)
        dist[:m][residual[:m] > 0] = 0.0
        label = dist.copy()  # dist of nodes not yet final, inf once final
        prev = np.full(m + n, -1, dtype=np.int64)  # node the best path came from
        done = np.zeros(m + n, dtype=bool)
        while True:
            u = int(np.argmin(label))
            if label[u] == np.inf:
                raise RuntimeError("transport problem infeasible")
            done[u], label[u] = True, np.inf
            if u < m:  # forward arcs to every column
                nodes = m + np.arange(n)
                nd = dist[u] + cost[u] + pot[u] - pot[m:]
            elif residual[u] > 0:
                break
            else:  # reverse arcs to the rows that send flow into this column
                nodes = np.flatnonzero(flow[:, u - m] > 0)
                nd = dist[u] - (cost[nodes, u - m] + pot[nodes] - pot[u])
            better = (nd < dist[nodes] - 1e-15) & ~done[nodes]
            nodes, nd = nodes[better], nd[better]
            dist[nodes], label[nodes], prev[nodes] = nd, nd, u
        pot += np.minimum(dist, dist[u])

        # Trace the augmenting path back to a source row; find its bottleneck.
        path: list[tuple[int, int, int]] = []  # (row, col, +1 forward / -1 backward)
        bottleneck, j = residual[u], u
        while True:
            i = int(prev[j])
            path.append((i, j - m, +1))
            if prev[i] < 0:
                bottleneck = min(bottleneck, residual[i])
                break
            j = int(prev[i])
            path.append((i, j - m, -1))
            bottleneck = min(bottleneck, flow[i, j - m])
        for r, c, direction in path:
            flow[r, c] += direction * bottleneck
        residual[i] -= bottleneck
        residual[u] -= bottleneck
    return flow
