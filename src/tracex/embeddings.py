"""Desk-scale word and document embeddings.

Skip-gram word vectors and PV-DBOW document vectors (trained against a
shared word output matrix) come from one negative-sampling loop with fixed
settings: unigram^0.75 noise, linear learning-rate decay and minimum count
1. There is one step per predicted word: all its input rows (the skip-gram
window's words, or the PV-DBOW document) predict it at once against 5 noise
words they share, and each update is computed from the state before the
step. Where a row or a target occurs more than once in a step (a word twice
in one window, a noise word equal to the predicted word), its updates
accumulate. Training is single-worker and bit-deterministic for a fixed
seed; the mean loss of each epoch is returned and recorded in `run.json` as
`epoch_losses`. A plain-text loader accepts externally trained vectors.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracex.corpus import ConfigError

WINDOW = 5  # skip-gram context: up to this many words on each side
NEGATIVES = 5  # noise words per prediction
NOISE_EXPONENT = 0.75
LEARNING_RATE = 0.025
MIN_LR_FRACTION = 1e-4
EPS = 1e-12  # keeps the loss finite where a prediction rounds to 0 or 1


class EmbeddingError(ValueError):
    """Raised for empty vocabularies or malformed vector files."""


@dataclass
class TrainConfig:
    dim: int = 50
    epochs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dim", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")


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


def _build_vocab(corpus: list[list[str]]) -> tuple[list[str], np.ndarray, list[list[int]]]:
    """Vocabulary by descending count then token, its counts, and the encoded corpus."""
    freq: dict[str, int] = {}
    for doc in corpus:
        for tok in doc:
            freq[tok] = freq.get(tok, 0) + 1
    if not freq:
        raise EmbeddingError("empty vocabulary: the corpus has no tokens")
    vocab = sorted(freq, key=lambda t: (-freq[t], t))
    index = {t: i for i, t in enumerate(vocab)}
    counts = np.array([freq[t] for t in vocab], dtype=np.int64)
    return vocab, counts, [[index[t] for t in doc] for doc in corpus]


def _train_sgns(
    docs: list[list[int]],
    counts: np.ndarray,
    n_inputs: int,
    inputs: Callable[[int, list[int], np.random.Generator], Sequence[list[int]]],
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Negative-sampling training shared by skip-gram and PV-DBOW.

    `inputs(d, docs[d], rng)` returns, for each position of a document, the
    rows of the n_inputs x dim input matrix that predict the word there. One
    step predicts one word from all its rows at once, against NEGATIVES noise
    words the rows share; every update is taken from the state before the
    step, and a row or target that occurs twice gets both updates. Returns
    the input and output matrices and the mean loss per (row, word)
    prediction of each epoch.
    """
    rng = np.random.default_rng(cfg.seed)
    weights = counts.astype(np.float64) ** NOISE_EXPONENT
    noise_cdf = np.cumsum(weights / weights.sum())
    w_in = (rng.random((n_inputs, cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((len(counts), cfg.dim))
    labels = np.zeros(1 + NEGATIVES)
    labels[0] = 1.0

    total_words = sum(len(d) for d in docs) * cfg.epochs
    processed = 0
    epoch_losses: list[float] = []
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
            if doc_preds:  # one loss term per (row, word) prediction
                preds = np.concatenate(doc_preds)
                log_lik += np.log(preds[:, 0] + EPS).sum()
                log_lik += np.log(1.0 - preds[:, 1:] + EPS).sum()
                loss_n += len(preds)
        epoch_losses.append(-float(log_lik) / max(1, loss_n))
    return w_in, w_out, epoch_losses


@dataclass
class TrainedWordModel:
    matrix: EmbeddingMatrix
    epoch_losses: list[float]


def _windows(di: int, doc: list[int], rng: np.random.Generator) -> list[list[int]]:
    """For each position, the words within a random span of 1 to WINDOW
    positions on each side."""
    spans = rng.integers(1, WINDOW + 1, size=len(doc)).tolist()
    return [
        doc[max(0, pos - span) : pos] + doc[pos + 1 : pos + 1 + span]
        for pos, span in enumerate(spans)
    ]


def train_skipgram(corpus: list[list[str]], cfg: TrainConfig) -> TrainedWordModel:
    """Skip-gram with negative sampling; deterministic for a fixed seed."""
    vocab, counts, docs = _build_vocab(corpus)
    docs = [d for d in docs if d]
    w_in, _, epoch_losses = _train_sgns(docs, counts, len(vocab), _windows, cfg)
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
    vocab, counts, encoded = _build_vocab([tokens for _, tokens in docs])
    d_vecs, w_out, epoch_losses = _train_sgns(
        encoded, counts, len(docs), lambda di, doc, rng: [[di]] * len(doc), cfg
    )
    return DocVectors(
        doc_ids=[doc_id for doc_id, _ in docs],
        vectors=d_vecs,
        word_matrix=EmbeddingMatrix(vocab=vocab, vectors=w_out),
        epoch_losses=epoch_losses,
    )
