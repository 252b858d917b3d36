"""Tokenization: conventional IR pipeline and trainable byte-pair encoding.

The conventional pipeline splits on non-alphanumeric runs, then on
camelCase and letter/digit boundaries, lowercases, and drops short tokens.
BPE is the classic greedy merge algorithm over whitespace-split words with
an end-of-word marker.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

EOW = "</w>"
MIN_TOKEN_LEN = 2  # shorter conventional tokens are dropped

_NON_ALNUM_RE = re.compile(r"[^0-9A-Za-z]+")
_BOUNDARY_RE = re.compile(
    r"(?<=[a-z])(?=[A-Z])"
    r"|(?<=[A-Z])(?=[A-Z][a-z])"
    r"|(?<=[A-Za-z])(?=[0-9])"
    r"|(?<=[0-9])(?=[A-Za-z])"
)


def conventional_tokenize(text: str) -> list[str]:
    """Tokenize raw artifact text. Empty input yields an empty list."""
    pieces = [sub.lower() for p in _NON_ALNUM_RE.split(text) if p for sub in _BOUNDARY_RE.split(p)]
    return [p for p in pieces if len(p) >= MIN_TOKEN_LEN]


@dataclass
class TokenCounts:
    """Multiset of tokens. Zero-count entries appear only in materialized
    min-shared vectors."""

    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def count_tokens(seq: list[str]) -> TokenCounts:
    return TokenCounts(dict(Counter(seq)))


class BpeTrainingError(ValueError):
    """Raised when the requested vocab size cannot exceed the base charset."""


class BpeModelError(ValueError):
    """Raised for a BPE model file that cannot be read or is not a model."""


@dataclass
class BpeModel:
    merges: list[tuple[str, str]]
    vocab: set[str]
    target_vocab_size: int

    def save(self, path: str | Path) -> None:
        doc = {"vocab_size": self.target_vocab_size, "merges": [list(m) for m in self.merges]}
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "BpeModel":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
            raise BpeModelError(f"{path}: unreadable BPE model: {exc}") from exc
        if not (
            isinstance(doc, dict)
            and type(doc.get("vocab_size")) is int
            and isinstance(doc.get("merges"), list)
            and all(isinstance(m, list) and len(m) == 2 and all(isinstance(s, str) for s in m)
                    for m in doc["merges"])
        ):
            raise BpeModelError(
                f"{path}: not a BPE model (an int vocab_size and a list of string pairs as merges)"
            )
        merges = [tuple(m) for m in doc["merges"]]
        vocab = {c for a, b in merges for c in (a, b)} | {a + b for a, b in merges}
        return cls(merges=merges, vocab=vocab, target_vocab_size=doc["vocab_size"])


def train_bpe(texts: list[str], vocab_size: int) -> BpeModel:
    """Greedy most-frequent-pair merges over the whitespace-split words of
    texts; ties broken lexicographically.

    The merge budget is vocab_size minus the number of distinct characters
    in the corpus (the end-of-word marker is bookkeeping, not a vocab
    entry). Training stops early when no pair occurs at least twice.
    """
    word_freq = Counter(word for text in texts for word in text.split())
    charset = {c for w in word_freq for c in w}
    if vocab_size <= len(charset):
        raise BpeTrainingError(
            f"vocab_size {vocab_size} must exceed the base charset size {len(charset)}"
        )
    budget = vocab_size - len(charset)

    seqs: list[tuple[list[str], int]] = [
        (list(word) + [EOW], freq) for word, freq in sorted(word_freq.items())
    ]
    merges: list[tuple[str, str]] = []
    vocab = set(charset)
    while len(merges) < budget:
        pair_freq: Counter = Counter()
        for symbols, freq in seqs:
            for a, b in zip(symbols, symbols[1:]):
                pair_freq[(a, b)] += freq
        if not pair_freq:
            break
        best_count = max(pair_freq.values())
        if best_count < 2:
            break
        best = min(p for p, c in pair_freq.items() if c == best_count)
        merges.append(best)
        vocab.add(best[0] + best[1])
        for symbols, _ in seqs:
            _apply_merge(symbols, best)
    return BpeModel(merges=merges, vocab=vocab, target_vocab_size=vocab_size)


def _apply_merge(symbols: list[str], pair: tuple[str, str]) -> None:
    a, b = pair
    i = 0
    while i < len(symbols) - 1:
        if symbols[i] == a and symbols[i + 1] == b:
            symbols[i : i + 2] = [a + b]
        else:
            i += 1


def bpe_encode(model: BpeModel, text: str) -> list[str]:
    """Whitespace-split and decompose each word by the trained merges.

    Unseen characters pass through as singleton tokens; a trailing bare
    end-of-word marker is fused into the word's final symbol.
    """
    ranks = {pair: i for i, pair in enumerate(model.merges)}
    out: list[str] = []
    cache: dict[str, list[str]] = {}
    for word in text.split():
        if word not in cache:
            cache[word] = _encode_word(word, ranks)
        out.extend(cache[word])
    return out


def _encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    symbols = list(word) + [EOW]
    while len(symbols) > 1:
        candidates = [
            (ranks[p], i)
            for i, p in enumerate(zip(symbols, symbols[1:]))
            if p in ranks
        ]
        if not candidates:
            break
        _, i = min(candidates)
        symbols[i : i + 2] = [symbols[i] + symbols[i + 1]]
    if len(symbols) > 1 and symbols[-1] == EOW:
        symbols[-2:] = [symbols[-2] + EOW]
    return symbols
