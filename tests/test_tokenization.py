import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracex.tokenization import (
    EOW,
    BpeModel,
    BpeTrainingError,
    bpe_encode,
    conventional_tokenize,
    count_tokens,
    train_bpe,
)


def test_short_tokens_dropped():
    assert conventional_tokenize("B dtimeout") == ["dtimeout"]


def test_camel_case_split():
    assert conventional_tokenize("fireException") == ["fire", "exception"]
    assert conventional_tokenize("HTTPServer2go") == ["http", "server", "go"]


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


def test_bpe_model_save_load(tmp_path):
    model = train_bpe(["low low lower lowest"], vocab_size=12)
    path = tmp_path / "bpe.json"
    model.save(path)
    loaded = BpeModel.load(path)
    assert loaded.merges == model.merges
    assert bpe_encode(loaded, "lower") == bpe_encode(model, "lower")
