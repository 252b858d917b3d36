"""Semantic distances between candidate pairs: EUC, COS, SCM, WMD.

Word Mover's Distance uses Euclidean ground cost between token vectors and
exact optimal transport; bags too large for the exact solver fall back to
the relaxed lower bound with a flag. `semantic_columns` hands the exact
pairs of a testbed to the solver together, in batches of at most
EXACT_WMD_PAIR_LIMIT padded cells. Out-of-vocabulary tokens are dropped;
a pair whose side becomes empty gets undefined distances.

`semantic_columns` scores every pair of a testbed, doing per-artifact work
once per artifact; `wmd` and `soft_cosine` score one pair.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from tracex.embeddings import EmbeddingMatrix
from tracex.tokenization import TokenCounts
from tracex.transport import transport_cost, transport_costs

EXACT_WMD_PAIR_LIMIT = 65536  # cells of one exact problem, and of one padded batch


def _in_vocab(counts: TokenCounts, m: EmbeddingMatrix) -> tuple[list[str], np.ndarray]:
    tokens = sorted(t for t, c in counts.counts.items() if c > 0 and t in m.index)
    weights = np.array([counts.counts[t] for t in tokens], dtype=np.int64)
    return tokens, weights


def _unit(vecs: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows stay zero."""
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0.0] = 1.0
    return vecs / norms[:, None]


def _term_sim(unit_a, rows_a, unit_b, rows_b) -> np.ndarray:
    """Soft-cosine term similarity max(0, cos)^2, and 1 between equal rows."""
    sim = np.maximum(0.0, unit_a @ unit_b.T) ** 2
    sim[rows_a[:, None] == rows_b[None, :]] = 1.0
    return sim


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
    unit, rows = _unit(np.stack([m.vector(t) for t in terms])), np.arange(len(terms))
    sim = _term_sim(unit, rows, unit, rows)
    idx = {t: i for i, t in enumerate(terms)}
    va, vb = np.zeros(len(terms)), np.zeros(len(terms))
    va[[idx[t] for t in ta]], vb[[idx[t] for t in tb]] = wa, wb
    num = float(va @ sim @ vb)
    den = math.sqrt(max(1e-12, float(va @ sim @ va)) * max(1e-12, float(vb @ sim @ vb)))
    return float(min(1.0, max(0.0, num / den)))


def relaxed_wmd(weights_a: np.ndarray, weights_b: np.ndarray, cost: np.ndarray) -> float:
    """Lower bound: max of the two one-sided nearest-neighbor relaxations."""
    pa = weights_a / weights_a.sum()
    pb = weights_b / weights_b.sum()
    return float(max(pa @ cost.min(axis=1), pb @ cost.min(axis=0)))


def _ground_cost(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    diff = va[:, None, :] - vb[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _wmd_from_cost(wa: np.ndarray, wb: np.ndarray, cost: np.ndarray) -> tuple[float, bool]:
    if not np.isfinite(cost).all():
        return math.nan, False  # overflowing vectors: never handed to the solver
    if cost.size > EXACT_WMD_PAIR_LIMIT:
        return relaxed_wmd(wa.astype(float), wb.astype(float), cost), True
    return transport_cost(wa, wb, cost), False


def _shape_batches(exact: list[tuple[int, int, int, int]]) -> Iterator[list[tuple[int, int]]]:
    """The (i, j) pairs of exact, in order, cut into batches whose padded
    size, pairs times largest m times largest n, stays within
    EXACT_WMD_PAIR_LIMIT; sorting exact by shape first keeps padding small."""
    batch: list[tuple[int, int]] = []
    big_m = big_n = 0
    for m, n, i, j in exact:
        big_m, big_n = max(big_m, m), max(big_n, n)
        if batch and (len(batch) + 1) * big_m * big_n > EXACT_WMD_PAIR_LIMIT:
            yield batch
            batch, big_m, big_n = [], m, n
        batch.append((i, j))
    if batch:
        yield batch


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
    va = np.stack([m.vector(t) for t in ta])
    vb = np.stack([m.vector(t) for t in tb])
    return _wmd_from_cost(wa, wb, _ground_cost(va, vb))


def _bag(counts: TokenCounts, m: EmbeddingMatrix | None):
    """An artifact's in-vocab word-matrix rows, weights, vectors, unit vectors,
    soft-cosine self term w.S.w and count-weighted mean vector; None when it
    has no in-vocab token."""
    tokens, weights = _in_vocab(counts, m) if m is not None else ([], None)
    if not tokens:
        return None
    rows = np.array([m.index[t] for t in tokens])
    vecs = m.vectors[rows]
    unit = _unit(vecs)
    self_term = max(1e-12, float(weights @ _term_sim(unit, rows, unit, rows) @ weights))
    w = weights.astype(np.float64)
    return rows, weights, vecs, unit, self_term, (w[:, None] * vecs).sum(axis=0) / w.sum()


def semantic_columns(
    src_counts: list[TokenCounts],
    tgt_counts: list[TokenCounts],
    word_matrix: EmbeddingMatrix | None,
    doc_vecs: list[np.ndarray | None] | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """wmd scm cos euc wmd_sim cos_sim for every pair of src_counts x tgt_counts,
    a mask per column and the wmd_relaxed flags, as (n_src, n_tgt) arrays.

    COS and EUC compare document vectors: doc_vecs, one per source and then
    one per target (None marks none), or else each artifact's count-weighted
    mean in-vocab word vector. Masks come from the inputs: wmd/scm need a
    word matrix and an in-vocab token on both sides, euc both document
    vectors, cos also nonzero norms. NaN marks undefined; a NaN under a mask
    is a numeric failure for the caller. WMD equals `wmd` bit for bit, the
    rest up to summation order.
    """
    shape = (len(src_counts), len(tgt_counts))
    wmd_col, scm_num = np.full(shape, np.nan), np.full(shape, np.nan)
    relaxed = np.zeros(shape, dtype=bool)
    with np.errstate(all="ignore"):  # a defined non-finite value is reported by the caller
        bags = [[_bag(c, word_matrix) for c in side] for side in (src_counts, tgt_counts)]
        exact = []  # (m, n, i, j) of the pairs small enough for the exact solver
        for i, a in enumerate(bags[0]):
            for j, b in enumerate(bags[1]):
                if a is None or b is None:
                    continue
                (rows_a, w_a, vecs_a, unit_a, *_), (rows_b, w_b, vecs_b, unit_b, *_) = a, b
                if len(w_a) * len(w_b) <= EXACT_WMD_PAIR_LIMIT:
                    exact.append((len(w_a), len(w_b), i, j))
                else:
                    wmd_col[i, j], relaxed[i, j] = _wmd_from_cost(w_a, w_b, _ground_cost(vecs_a, vecs_b))
                scm_num[i, j] = w_a @ _term_sim(unit_a, rows_a, unit_b, rows_b) @ w_b
        for batch in _shape_batches(sorted(exact)):
            pairs = [(i, j, _ground_cost(bags[0][i][2], bags[1][j][2])) for i, j in batch]
            pairs = [p for p in pairs if np.isfinite(p[2]).all()]  # overflow: NaN, never solved
            if pairs:
                rows, cols, _ = zip(*pairs)
                wmd_col[rows, cols] = transport_costs(
                    [(bags[0][i][1], bags[1][j][1], cost) for i, j, cost in pairs])
        self_s, self_t = ([np.nan if g is None else g[4] for g in side] for side in bags)
        scm = np.clip(scm_num / np.sqrt(np.outer(self_s, self_t)), 0.0, 1.0)

        if doc_vecs is None:
            doc_vecs = [None if g is None else g[5] for side in bags for g in side]
        src_vecs, tgt_vecs = doc_vecs[:shape[0]], doc_vecs[shape[0]:]
        dim = next((len(v) for v in doc_vecs if v is not None), 0)
        src, tgt = (np.array([np.full(dim, np.nan) if v is None else v for v in vecs])
                    .reshape(len(vecs), dim) for vecs in (src_vecs, tgt_vecs))
        euc = np.array([np.linalg.norm(row - tgt, axis=1) for row in src]).reshape(shape)
        norm_s, norm_t = np.linalg.norm(src, axis=1), np.linalg.norm(tgt, axis=1)
        cos = np.clip(1.0 - (src @ tgt.T) / np.outer(norm_s, norm_t), 0.0, 2.0)

    bag_mask = np.logical_and.outer(*([g is not None for g in side] for side in bags))
    euc_mask = np.logical_and.outer(*([v is not None for v in vecs] for vecs in (src_vecs, tgt_vecs)))
    cos_mask = euc_mask & np.logical_and.outer(norm_s != 0.0, norm_t != 0.0)
    values = {"wmd": wmd_col, "scm": scm, "cos": cos, "euc": euc,
              "wmd_sim": 1.0 / (1.0 + wmd_col), "cos_sim": 1.0 / (1.0 + cos)}
    masks = {"wmd": bag_mask, "scm": bag_mask, "cos": cos_mask, "euc": euc_mask,
             "wmd_sim": bag_mask, "cos_sim": cos_mask}
    return {name: np.where(masks[name], v, np.nan) for name, v in values.items()}, masks, relaxed
