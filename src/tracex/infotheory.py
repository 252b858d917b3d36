"""Information measures over token count vectors, per candidate pair.

The joint construction is pooled counts: concatenate the two token
multisets and take the entropy of the result as H_pool. Under it
mi = h_x + h_y - h_pool is an overlap score (it can be negative for
disjoint bags), loss = h_pool - h_y is the source information unexplained
by the target, and noise = h_pool - h_x is target information absent from
the source, so mi + loss = h_x and mi + noise = h_y hold exactly.
All logarithms are base 2; values are bits.

`info_record` scores one pair; `info_columns` scores every pair of a
testbed at once and is what the pipeline uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tracex.tokenization import TokenCounts


def counts_entropy(counts: TokenCounts) -> float:
    """Entropy of the normalized count vector, computed from raw counts."""
    total = counts.total
    if total <= 0:
        raise ValueError("entropy of empty counts is undefined")
    support = [c for c in counts.counts.values() if c > 0]
    if len(support) == 1:
        return 0.0  # point mass: avoid log-cancellation residue
    # H = log2(total) - (1/total) sum c log2 c, exact for integer counts
    return math.log2(total) - sum(c * math.log2(c) for c in support) / total


def pool(a: TokenCounts, b: TokenCounts) -> TokenCounts:
    """Multiset union: per-token sum of counts."""
    merged = dict(a.counts)
    for t, c in b.counts.items():
        merged[t] = merged.get(t, 0) + c
    return TokenCounts({t: c for t, c in merged.items() if c > 0})


def pooled_mutual_information(a: TokenCounts, b: TokenCounts) -> float:
    """MI = H(a) + H(b) - H(pool(a, b)). May be negative for disjoint bags."""
    return counts_entropy(a) + counts_entropy(b) - counts_entropy(pool(a, b))


def conditional_entropies(a: TokenCounts, b: TokenCounts) -> tuple[float, float]:
    """Return (loss, noise) = (H_pool - H(b), H_pool - H(a))."""
    h_pool = counts_entropy(pool(a, b))
    return h_pool - counts_entropy(b), h_pool - counts_entropy(a)


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
    return counts_entropy(shared)


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
class InfoRecord:
    """Per-pair information bundle.

    d2 and d3 follow the published-table convention: d2 = h_y minus the
    reported noise column (which numerically equals this loss) and
    d3 = h_x minus the reported loss column (numerically this noise).
    Fields are None when a side is empty (flagged, not fatal).
    """

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


def info_record(src_counts: TokenCounts, tgt_counts: TokenCounts) -> InfoRecord:
    """Compute every pairwise information measure for one candidate pair."""
    shared = min_shared_counts(src_counts, tgt_counts)
    null_shared = shared.total == 0
    si = msi_entropy(src_counts, tgt_counts)
    sx = msi_extropy(src_counts, tgt_counts)

    src_empty = src_counts.total == 0
    tgt_empty = tgt_counts.total == 0
    if src_empty or tgt_empty:
        h_x = None if src_empty else counts_entropy(src_counts)
        h_y = None if tgt_empty else counts_entropy(tgt_counts)
        return InfoRecord(
            h_x=h_x, h_y=h_y, h_pool=None, mi=None, loss=None, noise=None,
            si=si, sx=sx, d1=None, d2=None, d3=None,
            null_shared=null_shared,
        )

    h_x = counts_entropy(src_counts)
    h_y = counts_entropy(tgt_counts)
    h_pool = counts_entropy(pool(src_counts, tgt_counts))
    mi = h_x + h_y - h_pool
    loss = h_pool - h_y
    noise = h_pool - h_x
    return InfoRecord(
        h_x=h_x, h_y=h_y, h_pool=h_pool, mi=mi, loss=loss, noise=noise,
        si=si, sx=sx,
        d1=h_y - h_x, d2=h_y - loss, d3=h_x - noise,
        null_shared=null_shared,
    )


def _xlog2x(c: np.ndarray) -> np.ndarray:
    """c log2 c elementwise, with 0 log 0 := 0."""
    return c * np.log2(np.maximum(c, 1.0))


def _artifact_stats(bags: list[TokenCounts]):
    """Per artifact: total, support size, sum of c log2 c, entropy (NaN if empty)."""
    support = [[c for c in bag.counts.values() if c > 0] for bag in bags]
    total = np.array([sum(s) for s in support], dtype=np.float64)
    size = np.array([len(s) for s in support])
    xlogx = np.array([_xlog2x(np.array(s, dtype=np.float64)).sum() for s in support])
    h = np.array([counts_entropy(b) if s else np.nan for b, s in zip(bags, support)])
    return total, size, xlogx, h


def info_columns(
    src_counts: list[TokenCounts], tgt_counts: list[TokenCounts]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """Every info_record measure for every pair of src_counts x tgt_counts,
    a mask per measure and the null_shared flags, as (n_src, n_tgt) arrays.

    h_x needs a non-empty source, h_y a non-empty target, and the other
    measures except si/sx need both; undefined entries hold NaN.

    h_x and h_y are computed once per artifact. The pooled sum of c log2 c
    is both artifacts' own sums plus a correction over shared tokens: each
    source gathers its support from one target count matrix over the tokens
    found on both sides, and that gather is also the min-shared vector for
    si/sx. Values match info_record up to summation order.
    """
    vocab = [{t for bag in bags for t, c in bag.counts.items() if c > 0}
             for bags in (src_counts, tgt_counts)]
    col = {t: k for k, t in enumerate(vocab[0] & vocab[1])}
    tgt = np.zeros((len(tgt_counts), len(col)), dtype=np.int32)
    for j, bag in enumerate(tgt_counts):
        for t in bag.counts.keys() & col.keys():
            tgt[j, col[t]] = bag.counts[t]

    n_x, size_x, xlogx_x, h_x = _artifact_stats(src_counts)
    n_y, size_y, xlogx_y, h_y = _artifact_stats(tgt_counts)
    shape = (len(src_counts), len(tgt_counts))
    pooled = xlogx_x[:, None] + xlogx_y[None, :]
    shared_size = np.zeros(shape, dtype=np.int64)
    si, sx = np.zeros(shape), np.zeros(shape)
    for i, bag in enumerate(src_counts):
        gather = [(col[t], c) for t, c in bag.counts.items() if c > 0 and t in col]
        if not gather:
            continue
        cols, a = zip(*gather)
        a = np.array(a, dtype=np.float64)
        b = tgt[:, list(cols)].astype(np.float64)
        pooled[i] += (_xlog2x(a + b) - _xlog2x(a) - _xlog2x(b)).sum(axis=1)
        # Sorted, left-to-right sums make si/sx a function of the shared
        # multiset alone, so pairs with equal shared counts tie exactly.
        shared = -np.sort(-np.minimum(a, b), axis=1)
        total = shared.sum(axis=1)
        safe = np.where(total > 0, total, 1.0)
        size = (shared > 0).sum(axis=1)
        shared_size[i] = size
        s_xlogx = np.cumsum(_xlog2x(shared), axis=1)[:, -1]
        si[i] = np.where(size > 1, np.log2(safe) - s_xlogx / safe, 0.0)
        q = 1.0 - shared / safe[:, None]
        inner = (q > 0.0) & (q < 1.0)
        sx[i] = 0.0 - np.cumsum(q * np.log2(np.where(inner, q, 1.0)), axis=1)[:, -1]

    defined = (n_x > 0)[:, None] & (n_y > 0)[None, :]
    pooled_total = np.where(defined, n_x[:, None] + n_y[None, :], 1.0)
    h_pool = np.log2(pooled_total) - pooled / pooled_total
    h_pool[size_x[:, None] + size_y[None, :] - shared_size == 1] = 0.0  # point mass
    h_pool[~defined] = np.nan
    hx = np.repeat(h_x[:, None], shape[1], axis=1)
    hy = np.repeat(h_y[None, :], shape[0], axis=0)
    loss = h_pool - hy
    noise = h_pool - hx
    values = {"h_x": hx, "h_y": hy, "h_pool": h_pool, "mi": hx + hy - h_pool,
              "loss": loss, "noise": noise, "si": si, "sx": sx,
              "d1": hy - hx, "d2": hy - loss, "d3": hx - noise}
    everywhere = np.ones(shape, dtype=bool)
    masks = {name: defined for name in values}
    masks.update(h_x=~np.isnan(hx), h_y=~np.isnan(hy), si=everywhere, sx=everywhere)
    return values, masks, shared_size == 0
