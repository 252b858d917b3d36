"""Single-pair reference implementations of the information and semantic measures.

These score one (source, target) pair from its token-count dicts, one
measure at a time, with none of the engines' shared per-artifact arrays
and with their own `entropy`, not the engine's `counts_entropy`. The
engine property tests compare `info_columns` and `semantic_columns`
against them; the library never calls them. `info_cell` is the other
side: one pair's measures as the engine and the report give them, for the
tests that state them pair by pair. `conventional_pieces` is the
two-split reference for `conventional_tokenize`'s one regex pass.
`exact_transport` solves transport problems through `exact_costs`,
`padded_stack` lays them out as the solver's padded cost stack, and
`node_min_cost_flows` is the node-by-node reference of the solver's
column-step search. `sgns_by_lists` is the list-based reference of the
embedding trainer's loop, with `window_lists` and `own_row_lists` its
skip-gram and PV-DBOW inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from tracex.embeddings import (
    EPS,
    LEARNING_RATE,
    MIN_LR_FRACTION,
    NEGATIVES,
    NOISE_EXPONENT,
    WINDOW,
    EmbeddingMatrix,
    TrainConfig,
)
from tracex.infotheory import info_columns
from tracex.report import information_table
from tracex.semantics import EXACT_WMD_PAIR_LIMIT, relaxed_wmd
from tracex.tokenization import MIN_TOKEN_LEN, TokenCounts
from tracex.transport import exact_costs, transport_cost


_NON_ALNUM_RE = re.compile(r"[^0-9A-Za-z]+")
_BOUNDARY_RE = re.compile(
    r"(?<=[a-z])(?=[A-Z])"
    r"|(?<=[A-Z])(?=[A-Z][a-z])"
    r"|(?<=[A-Za-z])(?=[0-9])"
    r"|(?<=[0-9])(?=[A-Za-z])"
)


def conventional_pieces(text: str) -> list[str]:
    """Conventional tokens by two splits: on non-alphanumeric runs, then each
    piece at camelCase and letter/digit boundaries; lowercased, short ones
    dropped."""
    pieces = [sub.lower() for p in _NON_ALNUM_RE.split(text) if p for sub in _BOUNDARY_RE.split(p)]
    return [p for p in pieces if len(p) >= MIN_TOKEN_LEN]


def pool(a: TokenCounts, b: TokenCounts) -> TokenCounts:
    """Multiset union: per-token sum of counts."""
    merged = dict(a.counts)
    for t, c in b.counts.items():
        merged[t] = merged.get(t, 0) + c
    return TokenCounts({t: c for t, c in merged.items() if c > 0})


def entropy(counts: TokenCounts) -> float:
    """H = -sum p log2 p over the positive counts, normalized; a point mass
    is exactly 0.0."""
    support = [c for c in counts.counts.values() if c > 0]
    if not support:
        raise ValueError("entropy of empty counts is undefined")
    if len(support) == 1:
        return 0.0
    total = sum(support)
    return 0.0 - sum(c / total * math.log2(c / total) for c in support)


def min_shared_counts(a: TokenCounts, b: TokenCounts) -> TokenCounts:
    """Per-token minimum over the union vocabulary, zero entries retained, in
    first-seen order so that sums over it do not depend on string hashing."""
    vocab = {**a.counts, **b.counts}
    return TokenCounts({t: min(a.counts.get(t, 0), b.counts.get(t, 0)) for t in vocab})


def msi_entropy(a: TokenCounts, b: TokenCounts) -> float:
    """Entropy of the normalized min-shared vector; 0 when the vector is null."""
    shared = min_shared_counts(a, b)
    if shared.total == 0:
        return 0.0
    return entropy(shared)


def extropy(probs: list[float]) -> float:
    """J = -sum (1 - p_i) log2(1 - p_i); terms at p=0 and p=1 contribute 0."""
    return 0.0 - sum((1.0 - p) * math.log2(1.0 - p) for p in probs if 0.0 < p < 1.0)


def msi_extropy(a: TokenCounts, b: TokenCounts) -> float:
    """Extropy of the normalized min-shared vector over its stored entries."""
    shared = min_shared_counts(a, b)
    total = shared.total
    if total == 0:
        return 0.0
    return extropy([c / total for c in shared.counts.values()])


@dataclass
class PairInfo:
    """Every information measure of one (source, target) pair, None where
    undefined; d2 = h_y - loss and d3 = h_x - noise are the published
    table's columns."""

    h_x: float | None
    h_y: float | None
    h_pool: float | None
    mi: float | None
    loss: float | None
    noise: float | None
    si: float
    sx: float
    d1: float | None
    d2: float | None
    d3: float | None
    null_shared: bool


def info_record(src_counts: TokenCounts, tgt_counts: TokenCounts) -> PairInfo:
    """Every pairwise information measure for one candidate pair."""
    null_shared = min_shared_counts(src_counts, tgt_counts).total == 0
    si = msi_entropy(src_counts, tgt_counts)
    sx = msi_extropy(src_counts, tgt_counts)

    src_empty = src_counts.total == 0
    tgt_empty = tgt_counts.total == 0
    if src_empty or tgt_empty:
        h_x = None if src_empty else entropy(src_counts)
        h_y = None if tgt_empty else entropy(tgt_counts)
        return PairInfo(
            h_x=h_x, h_y=h_y, h_pool=None, mi=None, loss=None, noise=None,
            si=si, sx=sx, d1=None, d2=None, d3=None,
            null_shared=null_shared,
        )

    h_x = entropy(src_counts)
    h_y = entropy(tgt_counts)
    h_pool = entropy(pool(src_counts, tgt_counts))
    mi = h_x + h_y - h_pool
    loss = h_pool - h_y
    noise = h_pool - h_x
    return PairInfo(
        h_x=h_x, h_y=h_y, h_pool=h_pool, mi=mi, loss=loss, noise=noise,
        si=si, sx=sx,
        d1=h_y - h_x, d2=h_y - loss, d3=h_x - noise,
        null_shared=null_shared,
    )


def info_cell(src_counts: TokenCounts, tgt_counts: TokenCounts) -> PairInfo:
    """What the engine reports for one pair: cell (0, 0) of
    `info_columns([src], [tgt])`, None where its mask is false, with d2 and
    d3 from the report's information table over that one pair."""
    values, masks, null_shared = info_columns([src_counts], [tgt_counts])
    table = information_table({name: v.ravel() for name, v in values.items()}, "pair")
    return PairInfo(
        **{name: float(v[0, 0]) if masks[name][0, 0] else None for name, v in values.items()},
        d2=table["d2"], d3=table["d3"], null_shared=bool(null_shared[0, 0]),
    )


def _in_vocab(counts: TokenCounts, m: EmbeddingMatrix) -> tuple[list[str], np.ndarray]:
    tokens = sorted(t for t, c in counts.counts.items() if c > 0 and t in m.index)
    weights = np.array([counts.counts[t] for t in tokens], dtype=np.int64)
    return tokens, weights


def _vectors(tokens: list[str], m: EmbeddingMatrix) -> np.ndarray:
    return np.stack([m.vectors[m.index[t]] for t in tokens])


def soft_cosine(a: TokenCounts, b: TokenCounts, m: EmbeddingMatrix) -> float:
    """Soft cosine over the union in-vocab term set.

    Term similarity s_ij = max(0, cos(v_i, v_j))^2 with unit diagonal;
    relu^2 is not guaranteed PSD, so denominators are clamped.
    """
    ta, wa = _in_vocab(a, m)
    tb, wb = _in_vocab(b, m)
    if not ta or not tb:
        raise ValueError("soft cosine undefined: a side has no in-vocab tokens")
    terms = sorted(set(ta) | set(tb))
    vecs = _vectors(terms, m)
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0.0] = 1.0
    unit = vecs / norms[:, None]
    sim = np.maximum(0.0, unit @ unit.T) ** 2
    np.fill_diagonal(sim, 1.0)
    idx = {t: i for i, t in enumerate(terms)}
    va, vb = np.zeros(len(terms)), np.zeros(len(terms))
    va[[idx[t] for t in ta]], vb[[idx[t] for t in tb]] = wa, wb
    num = float(va @ sim @ vb)
    den = math.sqrt(max(1e-12, float(va @ sim @ va)) * max(1e-12, float(vb @ sim @ vb)))
    return float(min(1.0, max(0.0, num / den)))


def wmd(a: TokenCounts, b: TokenCounts, m: EmbeddingMatrix) -> tuple[float, bool]:
    """Word Mover's Distance and a flag marking the relaxed fallback.

    Exact transport when |support_a| * |support_b| <= EXACT_WMD_PAIR_LIMIT,
    otherwise the relaxed lower bound (flag True). NaN when a ground cost
    overflows.
    """
    ta, wa = _in_vocab(a, m)
    tb, wb = _in_vocab(b, m)
    if not ta or not tb:
        raise ValueError("WMD undefined: a side has no in-vocab tokens")
    diff = _vectors(ta, m)[:, None, :] - _vectors(tb, m)[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2))
    if not np.isfinite(cost).all():
        return math.nan, False
    if cost.size > EXACT_WMD_PAIR_LIMIT:
        return relaxed_wmd(wa.astype(float), wb.astype(float), cost), True
    return transport_cost(wa, wb, cost), False


def exact_transport(problems) -> np.ndarray:
    """The `exact_costs` of (a, b, cost) problems, each slot filled with its cost."""
    return exact_costs([a for a, _, _ in problems], [b for _, b, _ in problems],
                       lambda k, slot: np.copyto(slot, problems[k][2]))[0]


def padded_stack(problems, extra_m: int = 0, extra_n: int = 0):
    """(a, b, cost) problems as one padded cost stack for the solver, its
    cells +inf outside each problem and extra_m rows and extra_n columns past
    the largest one, and the weight vectors of each side."""
    cost = np.full((len(problems), max((len(a) for a, _, _ in problems), default=0) + extra_m,
                    max((len(b) for _, b, _ in problems), default=0) + extra_n), np.inf)
    for k, (a, b, c) in enumerate(problems):
        cost[k, :len(a), :len(b)] = c
    return cost, [a for a, _, _ in problems], [b for _, b, _ in problems]


def cross_scaled(cost, weights_a, weights_b) -> np.ndarray:
    """The solver's residual for a padded stack: each problem's supplies
    scaled by the demand total, then its demands scaled by the supply total."""
    n_problems, big_m, big_n = cost.shape
    residual = np.zeros((n_problems, big_m + big_n))
    for k, (a, b) in enumerate(zip(weights_a, weights_b)):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        residual[k, :len(a)], residual[k, big_m:big_m + len(b)] = a * b.sum(), b * a.sum()
    return residual


def node_transport(cost, weights_a, weights_b) -> tuple[np.ndarray, np.ndarray]:
    """The costs and flows of a padded stack under `node_min_cost_flows`, with
    the final expression of `exact_costs`."""
    flow = node_min_cost_flows(cross_scaled(cost, weights_a, weights_b), cost)
    costs = np.array([(flow[k, :len(a), :len(b)] * cost[k, :len(a), :len(b)]).sum() / (sum(a) * sum(b))
                      for k, (a, b) in enumerate(zip(weights_a, weights_b))])
    return costs, flow


def node_min_cost_flows(residual, cost) -> np.ndarray:
    """Successive shortest paths on a (B, M, N) cost stack, finalizing one
    node per lockstep Dijkstra step; returns the flows. residual holds each
    problem's supplies, then its demands, and is used up. This is the
    reference of `transport._min_cost_flows`, which must give the same bits.

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


def sgns_by_lists(docs, counts, n_inputs, inputs, cfg: TrainConfig):
    """Negative-sampling training, one Python list of rows per step, as the
    trainer ran before its window tables; `_train_sgns` must give the same
    bits. `inputs(d, docs[d], rng)` returns, for each position of a document,
    the list of input rows that predict the word there."""
    rng = np.random.default_rng(cfg.seed)
    weights = counts.astype(np.float64) ** NOISE_EXPONENT
    noise_cdf = np.cumsum(weights / weights.sum())
    w_in = (rng.random((n_inputs, cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((len(counts), cfg.dim))
    labels = np.zeros(1 + NEGATIVES)
    labels[0] = 1.0

    total_words = sum(len(d) for d in docs) * cfg.epochs
    processed = 0
    epoch_losses = []
    for _ in range(cfg.epochs):
        log_lik, loss_n = 0.0, 0
        for di in rng.permutation(len(docs)):
            doc = docs[di]
            rows_at = inputs(di, doc, rng)
            noise = np.searchsorted(noise_cdf, rng.random((len(doc), NEGATIVES)))
            targets_at = np.column_stack((doc, noise))
            doc_preds = []
            for rows, targets in zip(rows_at, targets_at):
                lr = LEARNING_RATE * max(MIN_LR_FRACTION, 1.0 - processed / total_words)
                processed += 1
                if not rows:
                    continue
                v = w_in[rows]
                o = w_out[targets]
                preds = 1.0 / (1.0 + np.exp(-(v @ o.T)))
                grad = preds - labels
                np.subtract.at(w_out, targets, lr * (grad.T @ v))
                np.subtract.at(w_in, rows, lr * (grad @ o))
                doc_preds.append(preds)
            if doc_preds:
                preds = np.concatenate(doc_preds)
                log_lik += np.log(preds[:, 0] + EPS).sum()
                log_lik += np.log(1.0 - preds[:, 1:] + EPS).sum()
                loss_n += len(preds)
        epoch_losses.append(-float(log_lik) / max(1, loss_n))
    return w_in, w_out, epoch_losses


def window_lists(di, doc, rng):
    """For each position, the words within a random span of 1 to WINDOW
    positions on each side, as one list per position."""
    spans = rng.integers(1, WINDOW + 1, size=len(doc)).tolist()
    return [
        doc[max(0, pos - span) : pos] + doc[pos + 1 : pos + 1 + span]
        for pos, span in enumerate(spans)
    ]


def own_row_lists(di, doc, rng):
    """PV-DBOW's inputs: the document's own row at every position."""
    return [[di]] * len(doc)
