import hashlib

import numpy as np
import pytest

from tracex.embeddings import (
    DocVectors,
    EmbeddingError,
    TrainConfig,
    load_embeddings,
    train_pvdbow,
    train_skipgram,
)


def two_cluster_corpus(n_docs=30, rng_seed=5):
    rng = np.random.default_rng(rng_seed)
    a_tokens = [f"a{i}" for i in range(5)]
    b_tokens = [f"b{i}" for i in range(5)]
    docs = []
    for i in range(n_docs):
        pool = a_tokens if i % 2 == 0 else b_tokens
        docs.append(list(rng.choice(pool, size=12)))
    return docs, a_tokens, b_tokens


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


def test_skipgram_clusters_cooccurring_tokens():
    docs, a_tokens, b_tokens = two_cluster_corpus()
    cfg = TrainConfig(dim=16, epochs=20, seed=1)
    trained = train_skipgram(docs, cfg)
    m = trained.matrix
    intra, inter = [], []
    for i, ta in enumerate(a_tokens):
        for tb in a_tokens[i + 1 :]:
            intra.append(cosine(m.vector(ta), m.vector(tb)))
        for tb in b_tokens:
            inter.append(cosine(m.vector(ta), m.vector(tb)))
    assert np.mean(intra) > np.mean(inter)


def test_skipgram_deterministic():
    docs, _, _ = two_cluster_corpus()
    cfg = TrainConfig(dim=8, epochs=3, seed=42)
    m1 = train_skipgram(docs, cfg).matrix
    m2 = train_skipgram(docs, cfg).matrix
    assert m1.vocab == m2.vocab
    assert np.array_equal(m1.vectors, m2.vectors)


def test_skipgram_loss_decreases():
    docs, _, _ = two_cluster_corpus()
    trained = train_skipgram(docs, TrainConfig(dim=16, epochs=10, seed=2))
    assert trained.epoch_losses[-1] <= trained.epoch_losses[0]
    assert np.isfinite(trained.matrix.vectors).all()


def test_skipgram_single_token_vocab():
    trained = train_skipgram([["tok", "tok", "tok"]], TrainConfig(dim=4, epochs=2, seed=0))
    assert trained.matrix.vocab == ["tok"]
    assert np.isfinite(trained.matrix.vectors).all()


def test_skipgram_empty_vocab_error():
    with pytest.raises(EmbeddingError, match="empty vocabulary"):
        train_skipgram([[]], TrainConfig())


def test_pvdbow_empty_vocab_error():
    with pytest.raises(EmbeddingError, match="empty vocabulary"):
        train_pvdbow([("a", [])], TrainConfig())


PIN_CORPUS = [
    ["parse", "config", "file", "parse", "error", "config"],
    [],
    ["open", "file", "read", "config", "file"],
    ["error", "handler", "log", "error", "parse"],
]


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def test_trainer_bits_pinned():
    """Exact vectors and losses of both trainers on a fixed corpus and seed.

    A change to the training arithmetic or to the order of its random draws
    moves these values; such a change must update the pins and say why.
    """
    cfg = TrainConfig(dim=4, epochs=3, seed=7)
    sg = train_skipgram(PIN_CORPUS, cfg)
    assert sg.matrix.vocab == ["config", "error", "file", "parse", "handler", "log", "open", "read"]
    assert sha256(sg.matrix.vectors) == (
        "2cceb19df2b2b3d3da2aa768e6483dad4086034b4925ffa38681434a11cc39b2"
    )
    assert sg.epoch_losses == [4.158527973536878, 4.158217575977872, 4.157489231733694]

    pv = train_pvdbow([(f"d{i}", d) for i, d in enumerate(PIN_CORPUS)], cfg)
    assert pv.vectors.shape == (4, 4)  # the empty document keeps its row
    assert sha256(pv.vectors) == (
        "2518d8b12554ba2942007589cb04f228209eb43d5a98375019d69f4f0713c57a"
    )
    assert sha256(pv.word_matrix.vectors) == (
        "c7d8aac5603b83d2f21c1f6b9256393c29c207c7165aab7bff038ac53b957423"
    )
    assert pv.epoch_losses == [4.158742454459519, 4.158375859087516, 4.158186985516561]


def test_pvdbow_near_duplicates_closer_than_disjoint():
    docs = [
        ("d1", ["alpha", "beta", "gamma", "alpha", "beta"]),
        ("d2", ["alpha", "beta", "gamma", "beta", "alpha"]),
        ("d3", ["omega", "psi", "chi", "phi", "omega"]),
    ] * 4
    docs = [(f"{d}_{i}", toks) for i, (d, toks) in enumerate(docs)]
    dv = train_pvdbow(docs, TrainConfig(dim=12, epochs=100, seed=3))
    sim_dup = cosine(dv.vectors[0], dv.vectors[1])
    sim_disjoint = cosine(dv.vectors[0], dv.vectors[2])
    assert sim_dup > sim_disjoint
    assert np.isfinite(dv.vectors).all()


def test_pvdbow_deterministic_single_doc():
    docs = [("only", ["a", "b", "a", "c"])]
    dv1 = train_pvdbow(docs, TrainConfig(dim=6, epochs=4, seed=9))
    dv2 = train_pvdbow(docs, TrainConfig(dim=6, epochs=4, seed=9))
    assert np.array_equal(dv1.vectors, dv2.vectors)
    assert dv1.vectors.shape == (1, 6)


def test_load_embeddings_basic(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
    m = load_embeddings(path)
    assert m.vocab == ["a", "b"]
    assert m.dim == 3
    assert np.array_equal(m.vector("b"), np.array([0.0, 1.0, 0.0]))


def test_load_embeddings_bad_arity(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("1 3\na 1 0\n")
    with pytest.raises(EmbeddingError, match=":2"):
        load_embeddings(path)


def test_load_embeddings_duplicate_token(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 2\na 1 0\na 0 1\n")
    with pytest.raises(EmbeddingError, match="duplicate"):
        load_embeddings(path)


def test_save_load_round_trip_bit_exact(tmp_path):
    docs, _, _ = two_cluster_corpus()
    m = train_skipgram(docs, TrainConfig(dim=7, epochs=2, seed=6)).matrix
    path = tmp_path / "rt.txt"
    m.save(path)
    loaded = load_embeddings(path)
    assert loaded.vocab == m.vocab
    assert np.array_equal(loaded.vectors, m.vectors)
