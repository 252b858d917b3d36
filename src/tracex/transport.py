"""Exact optimal transport between two discrete weight vectors.

Min-cost flow on the dense bipartite transport graph, solved by successive
shortest paths with node potentials (Dijkstra on reduced costs). Supplies
are cross-scaled to integers so every augmentation is exact; the final
cost is rescaled back to the probability simplex.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


def transport_cost(a, b, cost) -> float:
    """Minimum cost of moving distribution a onto b under the cost matrix.

    a and b are nonnegative integer weight vectors; they are normalized
    internally, so only their proportions matter. Every cost must be finite.
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

    # Cross-scale so supplies and demands are integers with equal totals.
    plan = _min_cost_transport(a * tb, b * ta, cost)
    return float((plan * cost).sum() / (ta * tb))


def _min_cost_transport(supply, demand, cost) -> np.ndarray:
    """Successive shortest paths. Reduced cost of the forward arc i->j is
    cost[i,j] + pot_u[i] - pot_v[j]; flow-carrying arcs admit the reverse
    arc at the negated reduced cost. Potentials keep all reduced costs
    nonnegative so Dijkstra stays valid with float costs. Only nodes not yet
    finalized are relaxed: round-off can make a reduced cost slightly
    negative, and relabelling a finalized node would put a cycle into the
    predecessor chain."""
    m, n = cost.shape
    flow = np.zeros((m, n))
    res_supply = supply.astype(np.float64).copy()
    res_demand = demand.astype(np.float64).copy()
    pot_u = np.zeros(m)
    pot_v = np.zeros(n)

    while True:
        sources = np.flatnonzero(res_supply > 0)
        if sources.size == 0:
            break
        dist_u = np.full(m, math.inf)
        dist_v = np.full(n, math.inf)
        prev_v = np.full(n, -1, dtype=np.int64)  # row used to reach column j
        prev_u = np.full(m, -1, dtype=np.int64)  # column used to reach row i
        done_u = np.zeros(m, dtype=bool)
        done_v = np.zeros(n, dtype=bool)
        heap: list[tuple[float, int, int]] = []
        for i in sources:
            dist_u[i] = 0.0
            heap.append((0.0, 0, int(i)))
        heapq.heapify(heap)

        while heap:
            d, side, idx = heapq.heappop(heap)
            if side == 0:
                if done_u[idx]:
                    continue
                done_u[idx] = True
                nd = d + cost[idx] + pot_u[idx] - pot_v
                for j in np.flatnonzero(nd < dist_v - 1e-15):
                    if done_v[j]:
                        continue
                    dist_v[j] = nd[j]
                    prev_v[j] = idx
                    heapq.heappush(heap, (nd[j], 1, int(j)))
            else:
                if done_v[idx]:
                    continue
                done_v[idx] = True
                rows = np.flatnonzero(flow[:, idx] > 0)
                if rows.size:
                    nd = d - (cost[rows, idx] + pot_u[rows] - pot_v[idx])
                    for k in np.flatnonzero(nd < dist_u[rows] - 1e-15):
                        i = int(rows[k])
                        if done_u[i]:
                            continue
                        dist_u[i] = nd[k]
                        prev_u[i] = idx
                        heapq.heappush(heap, (nd[k], 0, i))

        open_cols = np.flatnonzero(res_demand > 0)
        reachable = open_cols[np.isfinite(dist_v[open_cols])]
        if reachable.size == 0:
            raise RuntimeError("transport problem infeasible")
        j_end = int(reachable[np.argmin(dist_v[reachable])])
        d_end = dist_v[j_end]

        pot_u += np.minimum(dist_u, d_end)
        pot_v += np.minimum(dist_v, d_end)

        # Trace the augmenting path and find its bottleneck.
        path: list[tuple[int, int, int]] = []  # (row, col, +1 forward / -1 backward)
        j = j_end
        bottleneck = res_demand[j]
        while True:
            i = int(prev_v[j])
            path.append((i, j, +1))
            if prev_u[i] < 0:
                bottleneck = min(bottleneck, res_supply[i])
                start_row = i
                break
            j_back = int(prev_u[i])
            path.append((i, j_back, -1))
            bottleneck = min(bottleneck, flow[i, j_back])
            j = j_back
        for i, j, direction in path:
            flow[i, j] += direction * bottleneck
        res_supply[start_row] -= bottleneck
        res_demand[j_end] -= bottleneck
    return flow
