import hashlib

import numpy as np
import pytest

from tracex.corpus import generate_synthetic
from tracex.embeddings import (
    EPS,
    LEARNING_RATE,
    DocVectors,
    EmbeddingError,
    TrainConfig,
    _train_sgns,
    load_embeddings,
    train_pvdbow,
    train_skipgram,
)
from tracex.tokenization import conventional_tokenize


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
            intra.append(cosine(m.vectors[m.index[ta]], m.vectors[m.index[tb]]))
        for tb in b_tokens:
            inter.append(cosine(m.vectors[m.index[ta]], m.vectors[m.index[tb]]))
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
        "62eee9776c63f4bc30aa77be96798891a6aa492614c298bd1df58cad2904cb12"
    )
    assert sg.epoch_losses == [4.158478711793039, 4.157503752027862, 4.156782229603289]

    pv = train_pvdbow([(f"d{i}", d) for i, d in enumerate(PIN_CORPUS)], cfg)
    assert pv.vectors.shape == (4, 4)  # the empty document keeps its row
    assert sha256(pv.vectors) == (
        "67b69d93ac97e48dd52a0a6d51bb36c5f60130d89047a4ee31461537ae6010d7"
    )
    assert sha256(pv.word_matrix.vectors) == (
        "3c71d44bfb2f8e0985f8d458a91a286b9ffacc5ab011fa729a19e84680cefa5b"
    )
    assert pv.epoch_losses == [4.158748665972162, 4.158240143193684, 4.1580015071109155]


def test_every_gradient_of_a_repeated_target_is_applied():
    """One-word vocabulary: the predicted word and all 5 noise words are row 0.
    The output matrix starts at zero, so the single step predicts 1/2 for all
    six and row 0 receives the sum of their gradients, (1/2 - 1) + 5 * 1/2 = 2,
    times the document vector, which that step leaves as it was."""
    pv = train_pvdbow([("d", ["tok"])], TrainConfig(dim=4, epochs=1, seed=0))
    assert np.allclose(
        pv.word_matrix.vectors[0], -LEARNING_RATE * 2.0 * pv.vectors[0], rtol=1e-12, atol=0
    )


def test_repeated_rows_in_one_step_accumulate():
    """Two steps on a one-word vocabulary, by hand: row 1 predicts the word,
    then a window holding row 0 twice does. Every update of a step comes from
    the state before it, and each copy of row 0 adds its own."""
    docs, counts, cfg = [[0, 0]], np.array([2]), TrainConfig(dim=3, epochs=1, seed=4)
    w0, _, _ = _train_sgns(docs, counts, 2, lambda di, doc, rng: [[], []], cfg)  # no step
    w_in, w_out, losses = _train_sgns(docs, counts, 2, lambda di, doc, rng: [[1], [0, 0]], cfg)

    lr1, lr2 = LEARNING_RATE, LEARNING_RATE * 0.5
    o1 = -lr1 * 2.0 * w0[1]  # first step: six gradients summing to 2, as above
    p = 1.0 / (1.0 + np.exp(-(w0[0] @ o1)))
    per_row = (p - 1.0) + 5 * p  # gradients of one row's six targets, summed
    np.testing.assert_allclose(w_out[0], o1 - lr2 * 2 * per_row * w0[0], rtol=1e-12)
    np.testing.assert_allclose(w_in[0], w0[0] - lr2 * 2 * per_row * o1, rtol=1e-12)
    np.testing.assert_array_equal(w_in[1], w0[1])
    first = -6 * np.log(0.5 + EPS)
    second = -(np.log(p + EPS) + 5 * np.log(1.0 - p + EPS))
    assert losses == [pytest.approx((first + 2 * second) / 3, rel=1e-12)]


# Final epoch loss of the per-(row, word) trainer that preceded the batched
# step, on the corpus below (dim 16, 20 epochs, seed 3).
PER_ROW_C7_FINAL_LOSS = 2.507070524282271


def test_skipgram_converges_like_per_row_trainer():
    """Criterion 7's corpus as the pipeline trains it: one step per predicted
    word must end within 1% of the per-row trainer's final loss."""
    tb = generate_synthetic(3, 30, 30, 0.9)
    artifacts = sorted(tb.sources, key=lambda a: a.id) + sorted(tb.targets, key=lambda a: a.id)
    corpus = [conventional_tokenize(a.raw_text) for a in artifacts]
    trained = train_skipgram(corpus, TrainConfig(dim=16, epochs=20, seed=3))
    assert len(trained.epoch_losses) == 20
    assert trained.epoch_losses[-1] == pytest.approx(PER_ROW_C7_FINAL_LOSS, rel=0.01)


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
    assert np.array_equal(m.vectors[m.index["b"]], np.array([0.0, 1.0, 0.0]))


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
