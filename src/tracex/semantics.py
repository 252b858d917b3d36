"""Semantic distances between candidate pairs: EUC, COS, SCM, WMD.

Word Mover's Distance uses Euclidean ground cost between token vectors and
exact optimal transport; bags too large for the exact solver (by cells, or
by weight totals past its 2**53 bound) fall back to the relaxed lower
bound with a flag. `semantic_columns` hands the exact pairs of a testbed
to `tracex.transport.exact_costs` together, which batches them.
Out-of-vocabulary tokens are dropped; a pair whose side becomes empty gets
undefined distances.

`semantic_columns` scores every pair of a testbed, doing per-artifact work
once per artifact; it is the one implementation of these distances. Its WMD
part and its SCM part are separate steps over the same bags, so `wmd` reads
one pair's WMD and `soft_cosine` one pair's SCM without computing the other.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from tracex.embeddings import EmbeddingMatrix
from tracex.tokenization import TokenCounts
# transport_cost stays a module attribute: perfbench's span tracer wraps it by name.
from tracex.transport import EXACT_TOTAL_LIMIT, exact_costs, transport_cost  # noqa: F401

EXACT_WMD_PAIR_LIMIT = 65536  # ground-cost cells of one exact problem
SEMANTIC_COLUMNS = ("wmd", "scm", "cos", "euc", "wmd_sim", "cos_sim")


def _term_sim(unit_a, rows_a, unit_b, rows_b) -> np.ndarray:
    """Soft-cosine term similarity max(0, cos)^2, and 1 between equal rows."""
    sim = np.maximum(0.0, unit_a @ unit_b.T) ** 2
    sim[rows_a[:, None] == rows_b[None, :]] = 1.0
    return sim


def relaxed_wmd(weights_a: np.ndarray, weights_b: np.ndarray, cost: np.ndarray) -> float:
    """Lower bound: max of the two one-sided nearest-neighbor relaxations."""
    pa = weights_a / weights_a.sum()
    pb = weights_b / weights_b.sum()
    return float(max(pa @ cost.min(axis=1), pb @ cost.min(axis=0)))


def _ground_cost(va: np.ndarray, vb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between the rows of va and vb, into out if given.
    Rows go in blocks of EXACT_WMD_PAIR_LIMIT cells, so an exact pair is one
    block and a relaxed pair's (cells, dim) differences stay that small."""
    out = np.empty((len(va), len(vb))) if out is None else out
    rows = max(1, EXACT_WMD_PAIR_LIMIT // len(vb))
    for lo in range(0, len(va), rows):
        diff = va[lo:lo + rows, None, :] - vb[None, :, :]
        np.sqrt((diff * diff).sum(axis=2), out=out[lo:lo + rows])
    return out


class _Bag(NamedTuple):
    """An artifact's in-vocab tokens, as one side of every pair it is in."""
    rows: np.ndarray  # word-matrix rows
    weights: np.ndarray  # counts, int64
    total: int  # sum of the counts
    vecs: np.ndarray
    unit: np.ndarray  # vecs scaled to unit length
    self_term: float  # soft-cosine self term w.S.w
    mean: np.ndarray  # count-weighted mean vector


def _bag(counts: TokenCounts, m: EmbeddingMatrix | None) -> _Bag | None:
    """An artifact's bag; None when it has no in-vocab token."""
    tokens = [] if m is None else sorted(t for t, c in counts.counts.items() if c > 0 and t in m.index)
    if not tokens:
        return None
    weights = np.array([counts.counts[t] for t in tokens], dtype=np.int64)
    rows = np.array([m.index[t] for t in tokens])
    vecs = m.vectors[rows]
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0.0] = 1.0  # zero rows stay zero
    unit = vecs / norms[:, None]
    self_term = max(1e-12, float(weights @ _term_sim(unit, rows, unit, rows) @ weights))
    w = weights.astype(np.float64)
    return _Bag(rows, weights, int(weights.sum()), vecs, unit, self_term,
                (w[:, None] * vecs).sum(axis=0) / w.sum())


def _wmd_column(src: list[_Bag | None], tgt: list[_Bag | None],
                wmd_pairs: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """WMD of every (source, target) pair of bags and the wmd_relaxed flags.

    NaN where a side has no bag, and where a ground cost overflows: such a
    pair is never bounded or solved. Pairs of more than EXACT_WMD_PAIR_LIMIT
    ground-cost cells, or whose weight totals multiply past the solver's
    EXACT_TOTAL_LIMIT, get the relaxed bound; the others are solved exactly
    by `tracex.transport.exact_costs`. wmd_pairs, when given, receives the
    number of pairs bounded ("relaxed") and the counts of `exact_costs`.
    """
    shape = (len(src), len(tgt))
    wmd_col = np.full(shape, np.nan)
    relaxed = np.zeros(shape, dtype=bool)
    rows, cols = [], []  # the pairs small enough for the exact solver
    for i, a in enumerate(src):
        for j, b in enumerate(tgt):
            if a is None or b is None:
                continue
            if len(a.weights) * len(b.weights) <= EXACT_WMD_PAIR_LIMIT and a.total * b.total <= EXACT_TOTAL_LIMIT:
                rows.append(i)
                cols.append(j)
            else:
                cost = _ground_cost(a.vecs, b.vecs)
                if np.isfinite(cost).all():
                    wmd_col[i, j], relaxed[i, j] = relaxed_wmd(a.weights, b.weights, cost), True

    def fill(k, slot):
        _ground_cost(src[rows[k]].vecs, tgt[cols[k]].vecs, out=slot)

    costs, counts = exact_costs([src[i].weights for i in rows], [tgt[j].weights for j in cols], fill)
    wmd_col[rows, cols] = costs
    if wmd_pairs is not None:
        wmd_pairs.update(relaxed=int(relaxed.sum()), **counts)
    return wmd_col, relaxed


def _scm_column(src: list[_Bag | None], tgt: list[_Bag | None]) -> np.ndarray:
    """Soft cosine of every (source, target) pair of bags; NaN where a side has none."""
    scm_num = np.full((len(src), len(tgt)), np.nan)
    for i, a in enumerate(src):
        for j, b in enumerate(tgt):
            if a is not None and b is not None:
                scm_num[i, j] = a.weights @ _term_sim(a.unit, a.rows, b.unit, b.rows) @ b.weights
    self_s, self_t = ([np.nan if g is None else g.self_term for g in side] for side in (src, tgt))
    return np.clip(scm_num / np.sqrt(np.outer(self_s, self_t)), 0.0, 1.0)


def _pair_bags(a: TokenCounts, b: TokenCounts, m: EmbeddingMatrix, name: str):
    """One-bag sides for the pair (a, b); ValueError where semantic_columns
    leaves column `name` undefined."""
    src, tgt = [_bag(a, m)], [_bag(b, m)]
    if src[0] is None or tgt[0] is None:
        raise ValueError(f"{name} undefined: a side has no in-vocab tokens")
    return src, tgt


def wmd(a: TokenCounts, b: TokenCounts, m: EmbeddingMatrix) -> tuple[float, bool]:
    """Word Mover's Distance of one pair and a flag marking the relaxed
    fallback, taken by pairs of more than EXACT_WMD_PAIR_LIMIT ground-cost
    cells or whose weight totals multiply past EXACT_TOTAL_LIMIT; NaN when a
    ground cost overflows. Cell (0, 0) of semantic_columns, computed without
    its other columns."""
    with np.errstate(all="ignore"):
        values, relaxed = _wmd_column(*_pair_bags(a, b, m, "wmd"))
    return float(values[0, 0]), bool(relaxed[0, 0])


def soft_cosine(a: TokenCounts, b: TokenCounts, m: EmbeddingMatrix) -> float:
    """Soft cosine of one pair, with term similarity max(0, cos)^2 and a unit
    diagonal. Cell (0, 0) of semantic_columns, computed without its WMD."""
    with np.errstate(all="ignore"):
        return float(_scm_column(*_pair_bags(a, b, m, "scm"))[0, 0])


def semantic_columns(
    src_counts: list[TokenCounts],
    tgt_counts: list[TokenCounts],
    word_matrix: EmbeddingMatrix | None,
    doc_vecs: list[np.ndarray | None] | None = None,
    wmd_pairs: dict | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """wmd scm cos euc wmd_sim cos_sim for every pair of src_counts x tgt_counts,
    a mask per column and the wmd_relaxed flags, as (n_src, n_tgt) arrays.

    COS and EUC compare document vectors: doc_vecs, one per source and then
    one per target (None marks none), or else each artifact's count-weighted
    mean in-vocab word vector. Masks come from the inputs: wmd/scm need a
    word matrix and an in-vocab token on both sides, euc both document
    vectors, cos also nonzero norms. NaN marks undefined; a NaN under a mask
    is a numeric failure for the caller. wmd_pairs, when given, receives
    the WMD counts of `_wmd_column`.
    """
    shape = (len(src_counts), len(tgt_counts))
    if word_matrix is None and doc_vecs is None:  # no vectors: nothing is defined
        if wmd_pairs is not None:
            _wmd_column([], [], wmd_pairs)  # every count 0
        undefined, nowhere = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
        undefined.flags.writeable = nowhere.flags.writeable = False
        return dict.fromkeys(SEMANTIC_COLUMNS, undefined), dict.fromkeys(SEMANTIC_COLUMNS, nowhere), nowhere
    with np.errstate(all="ignore"):  # a defined non-finite value is reported by the caller
        bags = [[_bag(c, word_matrix) for c in side] for side in (src_counts, tgt_counts)]
        wmd_col, relaxed = _wmd_column(*bags, wmd_pairs)
        scm = _scm_column(*bags)

        if doc_vecs is None:
            doc_vecs = [None if g is None else g.mean for side in bags for g in side]
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
    for name, column in values.items():  # each a fresh array of this call
        np.copyto(column, np.nan, where=~masks[name])
    return values, masks, relaxed
