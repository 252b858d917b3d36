"""Desk-scale word and document embeddings.

Skip-gram word vectors and PV-DBOW document vectors (trained against a
shared word output matrix) come from one negative-sampling loop with fixed
settings: unigram^0.75 noise, linear learning-rate decay and minimum count
1. There is one step per predicted word: all its input rows (the skip-gram
window's words, or the PV-DBOW document) predict it at once against 5 noise
words they share, and each update is computed from the state before the
step. Where a row or a target occurs more than once in a step (a word twice
in one window, a noise word equal to the predicted word), its updates
accumulate. Each document's windows are one flat table of input rows with
per-position bounds, and the input and output matrices are two halves of one
array, so a step is two `take` gathers, three `ndarray.dot` products (the
BLAS calls of `@`, with less overhead per call on these small matrices) and
two `np.subtract.at` scatters. The scatters go to the array's flat view, at
cell indices from two tables (its steps' targets, its window table's rows)
built for TABLE_CELLS // dim positions of a document at a time, so they stay
a few MiB whatever the document's length: NumPy's `ufunc.at` is fastest on
1-D indices, and each cell gets its updates in the same order as from a
scatter of rows.
Training is single-worker and bit-deterministic for a fixed seed; the mean
loss of each epoch is returned and recorded in `run.json` as
`epoch_losses`. A plain-text loader accepts externally trained vectors; it
sizes its matrix once the first row has confirmed the header's dim.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracex.corpus import ConfigError, DataError, malformed, read_text_file

WINDOW = 5  # skip-gram context: up to this many words on each side
NEGATIVES = 5  # noise words per prediction
NOISE_EXPONENT = 0.75
LEARNING_RATE = 0.025
MIN_LR_FRACTION = 1e-4
EPS = 1e-12  # keeps the loss finite where a prediction rounds to 0 or 1
TABLE_CELLS = 1 << 14  # positions x dim per block of a document's cell tables


class EmbeddingError(DataError):
    """Raised for empty vocabularies or malformed vector files."""


@dataclass
class TrainConfig:
    dim: int = 50
    epochs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("dim", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")


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

    def save(self, path: str | Path) -> None:
        lines = [f"{len(self.vocab)} {self.dim}"]
        for token, row in zip(self.vocab, self.vectors):
            lines.append(token + " " + " ".join(repr(float(x)) for x in row))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Read the plain-text interchange format: header `<count> <dim>`, then
    one `<token> <f1> ... <fdim>` line per token."""
    lines = read_text_file(Path(path), "embedding file").splitlines() or [""]
    header = lines[0].split()
    if len(header) != 2 or not all(h.isdigit() for h in header):
        raise EmbeddingError(malformed("embedding file", path, f"header {lines[0]!r} is not <count> <dim>", 1))
    count, dim = int(header[0]), int(header[1])
    if dim == 0:
        raise EmbeddingError(malformed("embedding file", path, f"header {lines[0]!r} gives dim 0", 1))
    if len(lines) - 1 != count:
        raise EmbeddingError(malformed("embedding file", path, f"{count} rows promised, {len(lines) - 1} found"))
    vocab: dict[str, None] = {}  # the tokens in file order
    rows = np.empty((0, dim))  # sized once line 2 has confirmed dim
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        try:
            if len(fields) != dim + 1:
                raise ValueError(f"expected {dim} floats, got {len(fields) - 1}")
            if fields[0] in vocab:
                raise ValueError(f"duplicate token {fields[0]!r}")
            if lineno == 2:
                rows = np.empty((count, dim))
            rows[lineno - 2] = [float(x) for x in fields[1:]]
            if not np.isfinite(rows[lineno - 2]).all():
                raise ValueError("a value is not finite")
        except ValueError as exc:
            raise EmbeddingError(malformed("embedding file", path, exc, lineno)) from exc
        vocab[fields[0]] = None
    return EmbeddingMatrix(vocab=list(vocab), vectors=rows)


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
    inputs: Callable[[int, list[int], np.random.Generator], tuple[np.ndarray, Sequence[int]]],
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Negative-sampling training shared by skip-gram and PV-DBOW.

    `inputs(d, docs[d], rng)` returns the document's window table: a flat
    array of rows of the n_inputs x dim input matrix, and len(doc) + 1
    bounds, so that `flat[bounds[p]:bounds[p + 1]]` are the rows that predict
    the word at position p. One step predicts one word from all its rows at
    once, against NEGATIVES noise words the rows share; every update is
    taken from the state before the step, and a row or target that occurs
    twice gets both updates. Returns the input and output matrices, two
    views of one (n_inputs + vocab) x dim array, and the mean loss per
    (row, word) prediction of each epoch.
    """
    rng = np.random.default_rng(cfg.seed)
    weights = counts.astype(np.float64) ** NOISE_EXPONENT
    noise_cdf = np.cumsum(weights / weights.sum())
    w = np.zeros((n_inputs + len(counts), cfg.dim))
    w[:n_inputs] = (rng.random((n_inputs, cfg.dim)) - 0.5) / cfg.dim
    labels = np.zeros(1 + NEGATIVES)
    labels[0] = 1.0
    dim, cells = cfg.dim, np.arange(cfg.dim)  # row r holds the cells r * dim + cells of w's flat view
    step_cells = np.tile(cells, 1 + NEGATIVES)
    per = max(1, TABLE_CELLS // dim)  # positions per block of cell tables: their size is bounded
    # looked up once: the step loop below runs once per predicted word
    take, exp, scatter, neg, div = w.take, np.exp, np.subtract.at, np.negative, np.divide
    w_flat = w.reshape(-1)  # a view: ufunc.at runs fastest on 1-D cell indices

    total_words = sum(len(d) for d in docs) * cfg.epochs
    processed = 0
    epoch_losses: list[float] = []
    for _ in range(cfg.epochs):
        log_lik, loss_n = 0.0, 0
        for di in rng.permutation(len(docs)):
            doc = docs[di]
            flat, bounds = inputs(di, doc, rng)
            noise = np.searchsorted(noise_cdf, rng.random((len(doc), NEGATIVES)))
            targets_at = np.column_stack((doc, noise)) + n_inputs  # rows of w's output half
            # each step's rate, by the same IEEE operations as a scalar
            # expression: step counts below 2**53 are exact as floats
            steps = np.arange(processed, processed + len(doc))
            lrs = (LEARNING_RATE * np.maximum(MIN_LR_FRACTION, 1.0 - steps / total_words)).tolist()
            processed += len(doc)
            doc_preds = []
            for b in range(0, len(doc), per):
                # the cells of these steps' targets, and of their window table's rows, in order
                at, base, top = slice(b, b + per), bounds[b], bounds[min(b + per, len(doc))]
                target_cells = targets_at[at].repeat(dim, axis=1) * dim + step_cells
                row_cells = (flat[base:top, None] * dim + cells).ravel()
                ends = bounds[b + 1:b + per + 1]
                for lo, hi, targets, to, lr in zip(bounds[at], ends, targets_at[at], target_cells, lrs[at]):
                    if lo == hi:
                        continue
                    rows = flat[lo:hi]
                    v = take(rows, axis=0)
                    o = take(targets, axis=0)
                    preds = v.dot(o.T)  # sigmoid in place: 1 / (1 + exp(-x))
                    neg(preds, preds)
                    exp(preds, preds)
                    preds += 1.0
                    div(1.0, preds, preds)
                    grad = preds - labels
                    d_out = grad.T.dot(v)
                    d_out *= lr
                    scatter(w_flat, to, d_out.ravel())
                    d_in = grad.dot(o)
                    d_in *= lr
                    scatter(w_flat, row_cells[(lo - base) * dim:(hi - base) * dim], d_in.ravel())
                    doc_preds.append(preds)
            if doc_preds:  # one loss term per (row, word) prediction
                preds = np.concatenate(doc_preds)
                log_lik += np.log(preds[:, 0] + EPS).sum()
                log_lik += np.log(1.0 - preds[:, 1:] + EPS).sum()
                loss_n += len(preds)
        epoch_losses.append(-float(log_lik) / max(1, loss_n))
    return w[:n_inputs], w[n_inputs:], epoch_losses


@dataclass
class TrainedWordModel:
    matrix: EmbeddingMatrix
    epoch_losses: list[float]


def _windows(di: int, doc: list[int], rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """The window table of a document: for each position, the words within a
    random span of 1 to WINDOW positions on each side, left then right."""
    n = len(doc)
    spans = rng.integers(1, WINDOW + 1, size=n)
    pos = np.arange(n)
    left = np.minimum(pos, spans)
    sizes = left + np.minimum(n - 1 - pos, spans)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    # k-th entry of a window: k steps from its first word, skipping the centre
    k = np.arange(bounds[-1]) - np.repeat(bounds[:-1], sizes)
    at = np.repeat(pos - left, sizes) + k + (k >= np.repeat(left, sizes))
    return np.asarray(doc)[at], bounds.tolist()


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
    vectors: np.ndarray  # |docs| x dim
    word_matrix: EmbeddingMatrix  # output-side word vectors
    epoch_losses: list[float] = field(default_factory=list)


def _own_row(di: int, doc: list[int], rng: np.random.Generator) -> tuple[np.ndarray, range]:
    """PV-DBOW's window table: the document's own row predicts every word."""
    return np.full(len(doc), di), range(len(doc) + 1)


def train_pvdbow(docs: list[tuple[str, list[str]]], cfg: TrainConfig) -> DocVectors:
    """PV-DBOW: each document vector predicts words sampled from its own
    text via negative sampling against a shared word output matrix."""
    vocab, counts, encoded = _build_vocab([tokens for _, tokens in docs])
    d_vecs, w_out, epoch_losses = _train_sgns(encoded, counts, len(docs), _own_row, cfg)
    return DocVectors(
        vectors=d_vecs,
        word_matrix=EmbeddingMatrix(vocab=vocab, vectors=w_out),
        epoch_losses=epoch_losses,
    )
