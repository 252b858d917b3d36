"""Single-pair reference implementations of the information and semantic measures.

These score one (source, target) pair from its token-count dicts, one
measure at a time, with none of the engines' shared per-artifact arrays.
The engine property tests compare `info_columns` and `semantic_columns`
against them; the library never calls them. `conventional_pieces` is the
two-split reference for `conventional_tokenize`'s one regex pass.
`padded_stack` lays transport problems out as the solver's padded cost
stack.
"""

from __future__ import annotations

import math
import re

import numpy as np

from tracex.embeddings import EmbeddingMatrix
from tracex.infotheory import InfoRecord, counts_entropy
from tracex.semantics import EXACT_WMD_PAIR_LIMIT, relaxed_wmd
from tracex.tokenization import MIN_TOKEN_LEN, TokenCounts
from tracex.transport import transport_cost


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


def info_record(src_counts: TokenCounts, tgt_counts: TokenCounts) -> InfoRecord:
    """Every pairwise information measure for one candidate pair."""
    null_shared = min_shared_counts(src_counts, tgt_counts).total == 0
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


def padded_stack(problems, extra_m: int = 0, extra_n: int = 0):
    """(a, b, cost) problems as `stacked_transport_costs` arguments: one +inf
    cost stack, extra_m rows and extra_n columns past the largest problem,
    and the weight vectors of each side."""
    cost = np.full((len(problems), max((len(a) for a, _, _ in problems), default=0) + extra_m,
                    max((len(b) for _, b, _ in problems), default=0) + extra_n), np.inf)
    for k, (a, b, c) in enumerate(problems):
        cost[k, :len(a), :len(b)] = c
    return cost, [a for a, _, _ in problems], [b for _, b, _ in problems]
