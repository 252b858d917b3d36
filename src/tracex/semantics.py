"""Semantic distances between candidate pairs: EUC, COS, SCM, WMD.

Word Mover's Distance uses Euclidean ground cost between token vectors and
exact optimal transport; bags too large for the exact solver (by cells, or
by weight totals past its 2**53 bound) fall back to the relaxed lower
bound with a flag. `semantic_columns` hands the exact
pairs of a testbed to the solver together, in batches whose padded float64
cost stack and the solver's flow stack, one byte per cell or more as its
largest cross-scaled supply needs (`tracex.transport.flow_dtype`), stay
within EXACT_WMD_BATCH_BYTES: each batch's ground-cost blocks are written
straight into the solver's padded `+inf` cost stack
(`tracex.transport.stacked_transport_costs`). Out-of-vocabulary tokens are
dropped; a pair whose side becomes empty gets undefined distances.

`semantic_columns` scores every pair of a testbed, doing per-artifact work
once per artifact; it is the one implementation of these distances. Its WMD
part and its SCM part are separate steps over the same bags, so `wmd` reads
one pair's WMD and `soft_cosine` one pair's SCM without computing the other.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from tracex.embeddings import EmbeddingMatrix
from tracex.tokenization import TokenCounts
# transport_cost stays a module attribute: perfbench's span tracer wraps it by name.
from tracex.transport import EXACT_TOTAL_LIMIT, flow_dtype, stacked_transport_costs, transport_cost  # noqa: F401

EXACT_WMD_PAIR_LIMIT = 65536  # ground-cost cells of one exact problem
EXACT_WMD_BATCH_BYTES = 2 << 20  # padded cost stack plus flow stack of one solver batch
SEMANTIC_COLUMNS = ("wmd", "scm", "cos", "euc", "wmd_sim", "cos_sim")


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


def relaxed_wmd(weights_a: np.ndarray, weights_b: np.ndarray, cost: np.ndarray) -> float:
    """Lower bound: max of the two one-sided nearest-neighbor relaxations."""
    pa = weights_a / weights_a.sum()
    pb = weights_b / weights_b.sum()
    return float(max(pa @ cost.min(axis=1), pb @ cost.min(axis=0)))


def _ground_cost(va: np.ndarray, vb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distances between the rows of va and vb, into out if given."""
    diff = va[:, None, :] - vb[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2), out=out)


def _shape_batches(exact: list[tuple[int, int, int, int, int]]) -> Iterator[tuple[list, tuple[int, int, int]]]:
    """The (m, n, i, j, supply) entries of exact, in order, cut into batches,
    each with its padded stack shape (entries, largest m, largest n). A
    batch's padded cells each hold a float64 cost and a flow of the
    `flow_dtype` of its largest supply, within EXACT_WMD_BATCH_BYTES; a batch
    is cut only where the next entry would break that budget. Sorting exact
    by shape first keeps padding small."""
    batch: list[tuple[int, int, int, int, int]] = []
    big_m = big_n = big_supply = 0
    for entry in exact:
        m, n, _, _, supply = entry
        cell = 8 + flow_dtype(max(big_supply, supply)).itemsize  # bytes of a padded cell's cost and flow
        if batch and (len(batch) + 1) * max(big_m, m) * max(big_n, n) * cell > EXACT_WMD_BATCH_BYTES:
            yield batch, (len(batch), big_m, big_n)
            batch, big_m, big_n, big_supply = [], 0, 0, 0
        batch.append(entry)
        big_m, big_n, big_supply = max(big_m, m), max(big_n, n), max(big_supply, supply)
    if batch:
        yield batch, (len(batch), big_m, big_n)


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
    tokens, weights = _in_vocab(counts, m) if m is not None else ([], None)
    if not tokens:
        return None
    rows = np.array([m.index[t] for t in tokens])
    vecs = m.vectors[rows]
    unit = _unit(vecs)
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
    EXACT_TOTAL_LIMIT, get the relaxed bound; the others are solved exactly,
    batch by batch, each batch's blocks written straight into one padded
    cost stack. wmd_pairs, when given, receives the number of pairs solved
    exactly ("exact") and bounded ("relaxed"), of solver batches ("batches"),
    and the solver's augmenting paths ("augmentations") and lockstep search
    steps ("steps") over all batches.
    """
    shape = (len(src), len(tgt))
    wmd_col = np.full(shape, np.nan)
    relaxed = np.zeros(shape, dtype=bool)
    exact = []  # (m, n, i, j, largest cross-scaled supply) of the pairs small enough for the exact solver
    for i, a in enumerate(src):
        for j, b in enumerate(tgt):
            if a is None or b is None:
                continue
            if len(a.weights) * len(b.weights) <= EXACT_WMD_PAIR_LIMIT and a.total * b.total <= EXACT_TOTAL_LIMIT:
                exact.append((len(a.weights), len(b.weights), i, j, int(a.weights.max()) * b.total))
            else:
                cost = _ground_cost(a.vecs, b.vecs)
                if np.isfinite(cost).all():
                    wmd_col[i, j], relaxed[i, j] = relaxed_wmd(a.weights, b.weights, cost), True
    batches = list(_shape_batches(sorted(exact)))
    # One buffer holds each batch's stack in turn: the largest is allocated once.
    buffer = np.empty(max((b * m * n for _, (b, m, n) in batches), default=0))
    n_exact = n_batches = 0
    solver = {"augmentations": 0, "steps": 0}
    for batch, shape in batches:
        cost = buffer[:shape[0] * shape[1] * shape[2]].reshape(shape)
        cost.fill(np.inf)
        solved: list[tuple[int, int]] = []
        for m, n, i, j, _ in batch:
            block = _ground_cost(src[i].vecs, tgt[j].vecs, out=cost[len(solved), :m, :n])
            if np.isfinite(block).all():
                solved.append((i, j))
            else:  # the slot is padding again, for the next pair
                block.fill(np.inf)
        if solved:
            rows, cols = zip(*solved)
            wmd_col[rows, cols] = stacked_transport_costs(
                cost[:len(solved)], [src[i].weights for i in rows], [tgt[j].weights for j in cols], solver)
            n_exact, n_batches = n_exact + len(solved), n_batches + 1
    if wmd_pairs is not None:
        wmd_pairs.update(exact=n_exact, relaxed=int(relaxed.sum()), batches=n_batches, **solver)
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
    cells; NaN when a ground cost overflows. Cell (0, 0) of semantic_columns,
    computed without its other columns."""
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
    the counts of pairs solved exactly and bounded, of solver batches, and
    of the solver's augmenting paths and search steps.
    """
    shape = (len(src_counts), len(tgt_counts))
    if word_matrix is None and doc_vecs is None:  # no vectors: nothing is defined
        if wmd_pairs is not None:
            wmd_pairs.update(exact=0, relaxed=0, batches=0, augmentations=0, steps=0)
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
