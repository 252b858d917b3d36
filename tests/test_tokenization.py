import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tracex.tokenization as tokenization
from tracex.corpus import generate_synthetic
from tracex.pipeline import RunConfig, tokenize_texts
from tracex.tokenization import (
    EOW,
    BpeModel,
    BpeTrainingError,
    TokenCounts,
    bpe_encode,
    conventional_tokenize,
    count_tokens,
    train_bpe,
)

from oracles import conventional_pieces


def test_short_tokens_dropped():
    assert conventional_tokenize("B dtimeout") == ["dtimeout"]


def test_camel_case_split():
    assert conventional_tokenize("fireException") == ["fire", "exception"]
    assert conventional_tokenize("HTTPServer2go") == ["http", "server", "go"]


@pytest.mark.parametrize("text, tokens", [
    ("parseHTTPResponse", ["parse", "http", "response"]),
    ("ABCdef", ["ab", "cdef"]),
    ("HTTP2Server", ["http", "server"]),
    ("x2y", []),
    ("a", []),
    ("", []),
])
def test_camel_case_and_digit_boundaries(text, tokens):
    assert conventional_tokenize(text) == tokens == conventional_pieces(text)


# Both cases of ASCII letters, digits and separators, beside non-ASCII
# letters, a digit and an emoji that only separate pieces (İ lowercases to
# two code points)
@given(st.text(alphabet=st.sampled_from(
    [*"abcxyzABCXYZ0129_-", " ", "\t", "\n", "é", "ß", "İ", "١", "\U0001F600"]), max_size=60))
def test_one_pass_tokenizer_matches_two_splits(text):
    assert conventional_tokenize(text) == conventional_pieces(text)


def test_empty_input():
    assert conventional_tokenize("") == []


def test_no_stopwords_dropped():
    assert conventional_tokenize("the loop") == ["the", "loop"]


@given(st.text(max_size=200))
def test_tokenize_idempotent(text):
    tokens = conventional_tokenize(text)
    for tok in tokens:
        assert conventional_tokenize(tok) == [tok]


@given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), max_size=30))
def test_count_total_equals_length(seq):
    assert count_tokens(seq).total == len(seq)


def test_count_tokens_examples():
    assert count_tokens(["for", "for", "if"]).counts == {"for": 2, "if": 1}
    assert count_tokens([]).counts == {}
    counts = count_tokens(["for"] * 14 + ["if"] * 3 + ["return"] * 10)
    assert counts.counts == {"for": 14, "if": 3, "return": 10}


@pytest.mark.parametrize("count, stored", [(1.5, None), (-1, None), (2.0, 2), (np.int64(3), 3)])
def test_token_counts_are_nonnegative_integers(count, stored):
    # Every measure must see the same bag: a count of 1.5 would read as 1 in
    # WMD's integer weights, and a count of -1 would enter the total but not
    # the support of the entropies.
    if stored is None:
        with pytest.raises(ValueError, match="'a' must be a nonnegative integer"):
            TokenCounts({"a": count, "b": 1, "c": 0})
    else:
        counts = TokenCounts({"a": count, "b": 1, "c": 0}).counts
        assert counts == {"a": stored, "b": 1, "c": 0} and type(counts["a"]) is int


def test_bpe_first_merge():
    model = train_bpe(["low", "low", "lower"], vocab_size=6)
    assert model.merges[0] == ("l", "o")
    assert len(model.merges) == 1


def test_bpe_vocab_size_too_small():
    with pytest.raises(BpeTrainingError):
        train_bpe(["low"], vocab_size=3)


def test_bpe_training_deterministic():
    corpus = ["alpha beta", "beta beta gamma", "alpha gamma"]
    m1 = train_bpe(corpus, 30)
    m2 = train_bpe(corpus, 30)
    assert m1.merges == m2.merges


def test_bpe_encode_single_merge():
    model = train_bpe(["low", "low", "lower"], vocab_size=6)
    assert bpe_encode(model, "low") == ["lo", "w</w>"]


def test_bpe_encode_empty_model():
    model = BpeModel(merges=[], vocab=set(), target_vocab_size=100)
    assert bpe_encode(model, "ab") == ["a", "b</w>"]


def test_bpe_unseen_glyph_passthrough():
    model = train_bpe(["low"], vocab_size=10)
    assert bpe_encode(model, "ζ") == ["ζ</w>"]


def test_bpe_vocab_monotone_in_budget():
    corpus = ["aa ab aa ab abc abc aa"]
    prev = set()
    for extra in range(1, 5):
        model = train_bpe(corpus, vocab_size=3 + extra)
        assert prev <= model.vocab
        prev = model.vocab


@given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=5), min_size=1, max_size=10))
def test_bpe_round_trip(words):
    text = " ".join(words)
    model = train_bpe([text], vocab_size=len(set("".join(words))) + 10)
    decoded = "".join(bpe_encode(model, text)).replace(EOW, " ").strip()
    assert decoded == text


@pytest.mark.parametrize("preprocessing", ["conventional", "bpe8k"])
def test_tokenize_texts_encodes_each_distinct_word_once(preprocessing, monkeypatch):
    """A testbed's texts share one BPE word cache and one merge-rank table,
    so each distinct word is encoded once, and its sequences share one str
    per distinct token; the tokens are those of each text encoded alone."""
    tb = generate_synthetic(3, 6, 6, 0.6)
    texts = [a.raw_text for a in tb.sources + tb.targets]
    encoded = []
    encode_word = tokenization._encode_word
    monkeypatch.setattr(tokenization, "_encode_word",
                        lambda word, ranks: encoded.append(word) or encode_word(word, ranks))
    seqs = tokenize_texts(texts, RunConfig(manifests=[], preprocessing=preprocessing, vectorizer="none"))
    if preprocessing == "bpe8k":
        assert sorted(encoded) == sorted({w for text in texts for w in text.split()})
        model = train_bpe(texts, 8000)
        assert model.ranks is model.ranks
        assert seqs == [bpe_encode(model, text) for text in texts]
    else:
        assert seqs == [conventional_tokenize(text) for text in texts]
    assert len({id(t) for seq in seqs for t in seq}) == len({t for seq in seqs for t in seq})


def test_bpe_model_save_load(tmp_path):
    model = train_bpe(["low low lower lowest"], vocab_size=12)
    path = tmp_path / "bpe.json"
    model.save(path)
    loaded = BpeModel.load(path)
    assert loaded.merges == model.merges
    assert bpe_encode(loaded, "lower") == bpe_encode(model, "lower")
