"""Tokenization: conventional IR pipeline and trainable byte-pair encoding.

The conventional pipeline takes the pieces of one regex pass: ASCII digit
runs, and ASCII letter runs cut at camelCase boundaries. They are the pieces
of a split on non-alphanumeric runs and then at camelCase and letter/digit
boundaries. It lowercases them and drops short tokens.
BPE is the classic greedy merge algorithm over whitespace-split words with
an end-of-word marker.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

EOW = "</w>"
MIN_TOKEN_LEN = 2  # shorter conventional tokens are dropped

# A piece is a digit run or a letter run cut at camelCase boundaries: an
# uppercase run before an uppercase letter that starts a lowercase word
# ("HTTP" of "HTTPServer"), a lowercase word with an optional capital, or an
# uppercase run. Anything else, non-ASCII letters and digits included, only
# separates pieces, so lowercasing keeps each piece's length.
_PIECE_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")


def conventional_tokenize(text: str) -> list[str]:
    """Tokenize raw artifact text. Empty input yields an empty list."""
    return [p.lower() for p in _PIECE_RE.findall(text) if len(p) >= MIN_TOKEN_LEN]


@dataclass
class TokenCounts:
    """Multiset of tokens. Counts are nonnegative integers, given as ints or
    as integral floats and stored as ints; any other count raises
    ValueError. Zero counts are accepted; every measure ignores them."""

    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for token, c in self.counts.items():
            if not (c >= 0 and float(c).is_integer()):
                raise ValueError(f"count of token {token!r} must be a nonnegative integer, got {c!r}")
        self.counts = {t: int(c) for t, c in self.counts.items()}

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

    @cached_property
    def ranks(self) -> dict[tuple[str, str], int]:
        """Each merge's position in merges, built once per model."""
        return {pair: i for i, pair in enumerate(self.merges)}

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


def bpe_encode(model: BpeModel, text: str, words: dict[str, list[str]] | None = None) -> list[str]:
    """Whitespace-split and decompose each word by the trained merges.

    Unseen characters pass through as singleton tokens; a trailing bare
    end-of-word marker is fused into the word's final symbol. words, when
    given, maps words of this model already encoded to their symbols and
    gains the new ones: texts that pass one dict encode each word once.
    """
    words = {} if words is None else words
    out: list[str] = []
    for word in text.split():
        if word not in words:
            words[word] = _encode_word(word, model.ranks)
        out.extend(words[word])
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
