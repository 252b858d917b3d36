"""Desk-scale word and document embeddings.

Skip-gram with negative sampling (unigram^0.75 noise, symmetric window,
linear learning-rate decay) and PV-DBOW document vectors trained against a
shared word output matrix. Training is single-worker and bit-deterministic
for a fixed seed. A plain-text loader accepts externally trained vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracex.corpus import ConfigError

NOISE_EXPONENT = 0.75
MIN_LR_FRACTION = 1e-4


class EmbeddingError(ValueError):
    """Raised for empty vocabularies, malformed vector files, or OOV-only docs."""


@dataclass
class TrainConfig:
    dim: int = 50
    window: int = 5
    negatives: int = 5
    epochs: int = 20
    learning_rate: float = 0.025
    min_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dim", "window", "negatives", "epochs", "min_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")


@dataclass
class EmbeddingMatrix:
    vocab: list[str]
    vectors: np.ndarray  # |vocab| x dim
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.vocab) != len(set(self.vocab)):
            raise EmbeddingError("duplicate tokens in vocabulary")
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.vocab):
            raise EmbeddingError("vector matrix shape does not match vocabulary")
        if not np.isfinite(self.vectors).all():
            raise EmbeddingError("non-finite entries in embedding matrix")
        self.index = {t: i for i, t in enumerate(self.vocab)}

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self.index[token]]

    def save(self, path: str | Path) -> None:
        lines = [f"{len(self.vocab)} {self.dim}"]
        for token, row in zip(self.vocab, self.vectors):
            lines.append(token + " " + " ".join(repr(float(x)) for x in row))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Read the plain-text interchange format: header `<count> <dim>`, then
    one `<token> <f1> ... <fdim>` line per token."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise EmbeddingError(f"{path}: unreadable embedding file: {exc}") from exc
    if not lines:
        raise EmbeddingError(f"{path}: empty embedding file")
    header = lines[0].split()
    if len(header) != 2 or not all(h.isdigit() for h in header):
        raise EmbeddingError(f"{path}: malformed header {lines[0]!r}")
    count, dim = int(header[0]), int(header[1])
    if len(lines) - 1 != count:
        raise EmbeddingError(f"{path}: header promises {count} rows, found {len(lines) - 1}")
    vocab: list[str] = []
    rows = np.empty((count, dim))
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) != dim + 1:
            raise EmbeddingError(f"{path}:{lineno}: expected {dim} floats, got {len(fields) - 1}")
        token = fields[0]
        if token in seen:
            raise EmbeddingError(f"{path}:{lineno}: duplicate token {token!r}")
        seen.add(token)
        vocab.append(token)
        try:
            rows[lineno - 2] = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise EmbeddingError(f"{path}:{lineno}: {exc}") from exc
    return EmbeddingMatrix(vocab=vocab, vectors=rows)


class _NoiseSampler:
    """Negative sampling from the unigram^0.75 distribution."""

    def __init__(self, counts: np.ndarray, rng: np.random.Generator):
        weights = counts.astype(np.float64) ** NOISE_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())
        self.rng = rng

    def draw(self, k: int) -> np.ndarray:
        return np.searchsorted(self.cdf, self.rng.random(k))


def _build_vocab(corpus: list[list[str]], min_count: int) -> tuple[list[str], np.ndarray]:
    freq: dict[str, int] = {}
    for doc in corpus:
        for tok in doc:
            freq[tok] = freq.get(tok, 0) + 1
    kept = [(t, c) for t, c in freq.items() if c >= min_count]
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    if not kept:
        raise EmbeddingError("empty vocabulary after min_count filtering")
    vocab = [t for t, _ in kept]
    counts = np.array([c for _, c in kept], dtype=np.int64)
    return vocab, counts


def _sgns_step(
    w_in: np.ndarray,
    w_out: np.ndarray,
    in_idx: int,
    pos_idx: int,
    negatives: np.ndarray,
    lr: float,
) -> float:
    """One negative-sampling update; returns the step's loss."""
    targets = np.concatenate(([pos_idx], negatives))
    labels = np.zeros(len(targets))
    labels[0] = 1.0
    v = w_in[in_idx]
    scores = w_out[targets] @ v
    preds = 1.0 / (1.0 + np.exp(-scores))
    grad = preds - labels
    grad_v = grad @ w_out[targets]
    w_out[targets] -= lr * grad[:, None] * v
    w_in[in_idx] -= lr * grad_v
    eps = 1e-12
    return float(-(math.log(preds[0] + eps) + np.log(1.0 - preds[1:] + eps).sum()))


@dataclass
class TrainedWordModel:
    matrix: EmbeddingMatrix
    epoch_losses: list[float]


def train_skipgram(corpus: list[list[str]], cfg: TrainConfig) -> TrainedWordModel:
    """Skip-gram with negative sampling; deterministic for a fixed seed."""
    vocab, counts = _build_vocab(corpus, cfg.min_count)
    index = {t: i for i, t in enumerate(vocab)}
    docs = [[index[t] for t in doc if t in index] for doc in corpus]
    docs = [d for d in docs if d]
    if not docs:
        raise EmbeddingError("no trainable documents after filtering")

    rng = np.random.default_rng(cfg.seed)
    sampler = _NoiseSampler(counts, rng)
    w_in = (rng.random((len(vocab), cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((len(vocab), cfg.dim))

    total_words = sum(len(d) for d in docs) * cfg.epochs
    processed = 0
    epoch_losses: list[float] = []
    for _ in range(cfg.epochs):
        loss_sum, loss_n = 0.0, 0
        order = rng.permutation(len(docs))
        for di in order:
            doc = docs[di]
            for pos, center in enumerate(doc):
                lr = max(
                    cfg.learning_rate * MIN_LR_FRACTION,
                    cfg.learning_rate * (1.0 - processed / total_words),
                )
                processed += 1
                span = int(rng.integers(1, cfg.window + 1))
                lo = max(0, pos - span)
                hi = min(len(doc), pos + span + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    negs = sampler.draw(cfg.negatives)
                    loss_sum += _sgns_step(w_in, w_out, doc[ctx_pos], center, negs, lr)
                    loss_n += 1
        epoch_losses.append(loss_sum / max(1, loss_n))
    return TrainedWordModel(
        matrix=EmbeddingMatrix(vocab=vocab, vectors=w_in), epoch_losses=epoch_losses
    )


@dataclass
class DocVectors:
    doc_ids: list[str]
    vectors: np.ndarray  # |docs| x dim
    word_matrix: EmbeddingMatrix  # output-side word vectors
    epoch_losses: list[float] = field(default_factory=list)


def train_pvdbow(docs: list[tuple[str, list[str]]], cfg: TrainConfig) -> DocVectors:
    """PV-DBOW: each document vector predicts words sampled from its own
    text via negative sampling against a shared word output matrix."""
    corpus = [tokens for _, tokens in docs]
    vocab, counts = _build_vocab(corpus, cfg.min_count)
    index = {t: i for i, t in enumerate(vocab)}
    encoded = [[index[t] for t in tokens if t in index] for _, tokens in docs]
    if all(not d for d in encoded):
        raise EmbeddingError("all documents empty after filtering")

    rng = np.random.default_rng(cfg.seed)
    sampler = _NoiseSampler(counts, rng)
    d_vecs = (rng.random((len(docs), cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((len(vocab), cfg.dim))

    total_words = sum(len(d) for d in encoded) * cfg.epochs
    processed = 0
    epoch_losses: list[float] = []
    for _ in range(cfg.epochs):
        loss_sum, loss_n = 0.0, 0
        order = rng.permutation(len(encoded))
        for di in order:
            for word_idx in encoded[di]:
                lr = max(
                    cfg.learning_rate * MIN_LR_FRACTION,
                    cfg.learning_rate * (1.0 - processed / total_words),
                )
                processed += 1
                negs = sampler.draw(cfg.negatives)
                loss_sum += _sgns_step(d_vecs, w_out, di, word_idx, negs, lr)
                loss_n += 1
        epoch_losses.append(loss_sum / max(1, loss_n))
    return DocVectors(
        doc_ids=[doc_id for doc_id, _ in docs],
        vectors=d_vecs,
        word_matrix=EmbeddingMatrix(vocab=vocab, vectors=w_out.copy()),
        epoch_losses=epoch_losses,
    )


def mean_doc_vector(counts, m: EmbeddingMatrix) -> np.ndarray:
    """Count-weighted average of in-vocab token vectors."""
    tokens = sorted(t for t, c in counts.counts.items() if c > 0 and t in m.index)
    if not tokens:
        raise EmbeddingError("no in-vocab tokens")
    weights = np.array([counts.counts[t] for t in tokens], dtype=np.float64)
    vecs = np.stack([m.vector(t) for t in tokens])
    return (weights[:, None] * vecs).sum(axis=0) / weights.sum()
