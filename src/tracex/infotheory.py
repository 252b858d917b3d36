"""Information measures over token count vectors, per candidate pair.

The joint construction is pooled counts: concatenate the two token
multisets and take the entropy of the result as H_pool. Under it
mi = h_x + h_y - h_pool is an overlap score (it can be negative for
disjoint bags), loss = h_pool - h_y is the source information unexplained
by the target, and noise = h_pool - h_x is target information absent from
the source, so mi + loss = h_x and mi + noise = h_y hold exactly.
All logarithms are base 2; values are bits.

`info_columns` scores every pair of a testbed at once; it is the one
implementation of these measures. `info_record` reads one pair from it.
Float sums run left to right from 0 as explicit accumulations, so their
bits do not depend on the Python version (3.12's sum() compensates).
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
    xlogx = 0.0
    for c in support:
        xlogx += c * math.log2(c)
    return math.log2(total) - xlogx / total


@dataclass
class InfoRecord:
    """Per-pair information bundle.

    d2 and d3 follow the published-table convention: d2 = h_y minus the
    reported noise column (which numerically equals this loss) and
    d3 = h_x minus the reported loss column (numerically this noise).
    They are formed from this pair's own fields, not by info_columns.
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
    """Every information measure for one candidate pair: cell (0, 0) of
    info_columns, with None where a measure is undefined, and d2 and d3."""
    values, masks, null_shared = info_columns([src_counts], [tgt_counts])
    record = {name: float(v[0, 0]) if masks[name][0, 0] else None for name, v in values.items()}
    defined = record["loss"] is not None
    return InfoRecord(
        **record,
        d2=record["h_y"] - record["loss"] if defined else None,
        d3=record["h_x"] - record["noise"] if defined else None,
        null_shared=bool(null_shared[0, 0]),
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


def _target_index(tgt_counts: list[TokenCounts], col: dict[str, int]):
    """Each shared token's targets and counts, token by token: token k is
    held by targets[ptr[k]:ptr[k + 1]], with counts[ptr[k]:ptr[k + 1]]."""
    entries = sorted((col[t], j, c) for j, bag in enumerate(tgt_counts)
                     for t, c in bag.counts.items() if c > 0 and t in col)
    token, targets, counts = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return np.searchsorted(token, np.arange(len(col) + 1)), targets, counts.astype(np.float64)


def info_columns(
    src_counts: list[TokenCounts], tgt_counts: list[TokenCounts]
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray]:
    """Every InfoRecord measure but d2 and d3 for every pair of
    src_counts x tgt_counts, a mask per measure and the null_shared flags,
    as (n_src, n_tgt) arrays. d2 and d3 are differences of these columns:
    the report and info_record form them where they are read.

    h_x needs a non-empty source, h_y a non-empty target, and the other
    measures except si/sx need both; undefined entries hold NaN.

    h_x and h_y are computed once per artifact. The pooled sum of c log2 c
    is both artifacts' own sums plus a correction over shared tokens: each
    source gathers the target counts of its tokens found on both sides from
    a per-token (target, count) index into one (targets x its tokens) block,
    and that block is also the min-shared vector for si/sx. The block is
    F-ordered, as a column gather from a dense count matrix would be, so its
    row sums add in that order; beyond the output columns, memory is one
    source's block and the index, not targets x vocabulary, and both go
    before the output columns are built.
    """
    vocab = [{t for bag in bags for t, c in bag.counts.items() if c > 0}
             for bags in (src_counts, tgt_counts)]
    col = {t: k for k, t in enumerate(vocab[0] & vocab[1])}
    ptr, targets, counts = _target_index(tgt_counts, col)

    n_x, size_x, xlogx_x, h_x = _artifact_stats(src_counts)
    n_y, size_y, xlogx_y, h_y = _artifact_stats(tgt_counts)
    shape = (len(src_counts), len(tgt_counts))
    pooled = xlogx_x[:, None] + xlogx_y[None, :]
    shared_size = np.zeros(shape, dtype=np.uint8)  # tokens both sides hold, counted up to 2
    si, sx = np.zeros(shape), np.zeros(shape)
    for i, bag in enumerate(src_counts):
        gather = [(col[t], c) for t, c in bag.counts.items() if c > 0 and t in col]
        if not gather:
            continue
        cols, a = (np.array(v) for v in zip(*gather))
        a = a.astype(np.float64)
        held = ptr[cols + 1] - ptr[cols]  # index entries of each token, in turn
        at = np.repeat(ptr[cols] - np.cumsum(held) + held, held) + np.arange(held.sum())
        block = np.zeros((len(cols), shape[1]))
        block[np.repeat(np.arange(len(cols)), held), targets[at]] = counts[at]
        b = block.T  # F-ordered (targets x tokens): see the docstring
        pooled[i] += (_xlog2x(a + b) - _xlog2x(a) - _xlog2x(b)).sum(axis=1)
        # Sorted, left-to-right sums make si/sx a function of the shared
        # multiset alone, so pairs with equal shared counts tie exactly.
        shared = -np.sort(-np.minimum(a, b), axis=1)
        total = shared.sum(axis=1)
        safe = np.where(total > 0, total, 1.0)
        size = (shared > 0).sum(axis=1)
        shared_size[i] = np.minimum(size, 2)
        s_xlogx = np.cumsum(_xlog2x(shared), axis=1)[:, -1]
        si[i] = np.where(size > 1, np.log2(safe) - s_xlogx / safe, 0.0)
        q = 1.0 - shared / safe[:, None]
        inner = (q > 0.0) & (q < 1.0)
        sx[i] = 0.0 - np.cumsum(q * np.log2(np.where(inner, q, 1.0)), axis=1)[:, -1]
    del vocab, col, ptr, targets, counts  # the per-token index: gone before the output columns

    defined = (n_x > 0)[:, None] & (n_y > 0)[None, :]
    h_pool = np.add.outer(n_x, n_y)  # the pooled totals, then H_pool in place
    h_pool[~defined] = 1.0
    pooled /= h_pool
    np.log2(h_pool, out=h_pool)
    h_pool -= pooled
    del pooled
    # a single pooled token: both bags are that one token
    h_pool[(size_x == 1)[:, None] & (size_y == 1)[None, :] & (shared_size == 1)] = 0.0
    h_pool[~defined] = np.nan
    hx = np.repeat(h_x[:, None], shape[1], axis=1)
    hy = np.repeat(h_y[None, :], shape[0], axis=0)
    loss = h_pool - hy
    noise = h_pool - hx
    mi = hx + hy
    mi -= h_pool
    values = {"h_x": hx, "h_y": hy, "h_pool": h_pool, "mi": mi,
              "loss": loss, "noise": noise, "si": si, "sx": sx, "d1": hy - hx}
    everywhere = np.ones(shape, dtype=bool)
    masks = {name: defined for name in values}
    masks.update(h_x=~np.isnan(hx), h_y=~np.isnan(hy), si=everywhere, sx=everywhere)
    return values, masks, shared_size == 0
