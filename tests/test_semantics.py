import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracex.corpus import generate_synthetic
from tracex.embeddings import EmbeddingMatrix
from tracex.semantics import (
    EXACT_WMD_PAIR_LIMIT,
    _shape_batches,
    relaxed_wmd,
    semantic_columns,
    soft_cosine,
    wmd,
)
from tracex.tokenization import TokenCounts, conventional_tokenize, count_tokens
from tracex.transport import transport_cost, transport_costs

import oracles

ROOT = Path(__file__).resolve().parent.parent
SEMANTIC_FIELDS = ("wmd", "scm", "cos", "euc", "wmd_sim", "cos_sim")


def matrix(**vectors):
    vocab = sorted(vectors)
    return EmbeddingMatrix(vocab=vocab, vectors=np.array([vectors[t] for t in vocab], float))


def columns(src, tgt, m, doc_vecs=None):
    """semantic_columns on lists of count dicts."""
    return semantic_columns([TokenCounts(c) for c in src], [TokenCounts(c) for c in tgt], m, doc_vecs)


def test_semantic_columns_cos_and_euc_basics():
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    values, masks, _ = columns([{}], [{}] * 4, None, [u, u, v, -u, np.zeros(2)])
    assert values["cos"][0, :3] == pytest.approx([0.0, 1.0, 2.0])
    assert np.isnan(values["cos"][0, 3])  # zero vector: cosine undefined
    assert masks["cos"].tolist() == [[True, True, True, False]]
    assert values["euc"][0] == pytest.approx([0.0, np.sqrt(2), 2.0, 1.0])
    assert masks["euc"].all()


def test_semantic_columns_euclidean_hand_case():
    src = [np.array([0.0, 0.0]), np.array([1.0, 2.0])]
    values, _, _ = columns([{}, {}], [{}], None, [*src, np.array([3.0, 4.0])])
    assert values["euc"][:, 0] == pytest.approx([5.0, np.sqrt(8)])


def test_soft_cosine_identical_counts():
    m = matrix(x=[1, 0], y=[0, 1])
    a = TokenCounts({"x": 2, "y": 1})
    assert soft_cosine(a, a, m) == pytest.approx(1.0)


def test_soft_cosine_orthogonal_reduces_to_cosine():
    m = matrix(x=[1, 0], y=[0, 1])
    a = TokenCounts({"x": 1})
    b = TokenCounts({"x": 1, "y": 1})
    plain = (1 * 1) / (1 * np.sqrt(2))
    assert soft_cosine(a, b, m) == pytest.approx(plain)


def test_soft_cosine_hand_case():
    # cos(v_x, v_y) = 0.5 -> s_xy = 0.25
    m = matrix(x=[1.0, 0.0], y=[0.5, np.sqrt(3) / 2])
    a = TokenCounts({"x": 1})
    b = TokenCounts({"y": 1})
    assert soft_cosine(a, b, m) == pytest.approx(0.25, abs=1e-12)


def test_soft_cosine_oov_side_error():
    m = matrix(x=[1, 0])
    with pytest.raises(ValueError):
        soft_cosine(TokenCounts({"x": 1}), TokenCounts({"oov": 1}), m)


def test_wmd_oov_side_error():
    m = matrix(x=[1, 0])
    with pytest.raises(ValueError):
        wmd(TokenCounts({"oov": 1}), TokenCounts({"x": 1}), m)


def test_wmd_identical_bags():
    m = matrix(x=[1, 0], y=[0, 1])
    a = TokenCounts({"x": 2, "y": 3})
    value, relaxed = wmd(a, a, m)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert not relaxed


def test_wmd_singleton_bags():
    m = matrix(x=[0.0, 0.0], y=[3.0, 4.0])
    value, _ = wmd(TokenCounts({"x": 1}), TokenCounts({"y": 5}), m)
    assert value == pytest.approx(5.0)


def test_transport_hand_cases():
    assert transport_cost([1, 1], [1, 1], [[0, 1], [1, 0]]) == pytest.approx(0.0)
    assert transport_cost([1, 1], [1, 1], [[1, 0], [0, 1]]) == pytest.approx(0.0)
    assert transport_cost([1, 1], [1, 1], [[1, 1], [1, 3]]) == pytest.approx(1.0)


def test_wmd_symmetric_and_triangle():
    rng = np.random.default_rng(12)
    vocab = [f"t{i}" for i in range(6)]
    m = EmbeddingMatrix(vocab=vocab, vectors=rng.normal(size=(6, 3)))
    bags = []
    for _ in range(3):
        support = rng.choice(vocab, size=3, replace=False)
        bags.append(TokenCounts({t: int(rng.integers(1, 5)) for t in support}))
    d01, _ = wmd(bags[0], bags[1], m)
    d10, _ = wmd(bags[1], bags[0], m)
    d02, _ = wmd(bags[0], bags[2], m)
    d12, _ = wmd(bags[1], bags[2], m)
    assert d01 == pytest.approx(d10, abs=1e-9)
    assert d02 <= d01 + d12 + 1e-9


def test_relaxed_is_lower_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.integers(1, 8, size=4)
        b = rng.integers(1, 8, size=3)
        cost = rng.random((4, 3)) * 2
        exact = transport_cost(a, b, cost)
        lb = relaxed_wmd(a.astype(float), b.astype(float), cost)
        assert exact >= lb - 1e-9


def test_semantic_columns_full():
    m = matrix(x=[1.0, 0.0], y=[0.0, 1.0])
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    values, masks, relaxed = columns([{"x": 1}], [{"y": 1}], m, [u, v])
    assert values["wmd"][0, 0] == pytest.approx(np.sqrt(2))
    assert values["wmd_sim"][0, 0] == pytest.approx(1 / (1 + np.sqrt(2)))
    assert values["scm"][0, 0] == 0.0
    assert values["cos"][0, 0] == pytest.approx(1.0)
    assert values["cos_sim"][0, 0] == pytest.approx(0.5)
    assert values["euc"][0, 0] == pytest.approx(np.sqrt(2))
    assert all(masks[name].all() for name in SEMANTIC_FIELDS)
    assert not relaxed.any()


def test_semantic_columns_similarity_transform():
    m = matrix(x=[0.0, 0.0], y=[1.0, 0.0], z=[2.0, 0.0])
    values, _, _ = columns([{"x": 1}], [{"x": 1}, {"y": 1}, {"z": 1}], m)
    assert values["wmd_sim"][0].tolist() == [1.0, 0.5, pytest.approx(1 / 3)]


def test_semantic_columns_undefined_oov():
    m = matrix(x=[1.0, 0.0])
    values, masks, _ = columns([{"x": 1}], [{"zz": 1}], m)
    for name in SEMANTIC_FIELDS:
        assert np.isnan(values[name][0, 0]), name
        assert not masks[name][0, 0], name


def test_semantic_columns_mean_word_vectors():
    """Without document vectors, COS and EUC compare each artifact's
    count-weighted mean in-vocab word vector."""
    m = matrix(u=[2.0, 0.0], v=[0.0, 4.0])
    values, masks, _ = columns([{"u": 3}, {"u": 1, "v": 1, "oov": 5}], [{"v": 1}, {"oov": 2}], m)
    # means (2, 0) and (1, 2) against (0, 4); the OOV-only target has none
    assert values["euc"][:, 0] == pytest.approx([np.sqrt(20.0), np.sqrt(5.0)])
    for name in ("cos", "euc", "cos_sim"):
        assert masks[name][:, 0].all() and not masks[name][:, 1].any(), name
        assert np.isnan(values[name][:, 1]).all(), name


def test_semantic_columns_mean_vector_ignores_count_scale():
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(vocab=["a", "b", "c"], vectors=rng.normal(size=(3, 4)))
    values, _, _ = columns([{"a": 2, "b": 1}], [{"a": 4, "b": 2}], m)
    assert values["cos"][0, 0] == pytest.approx(0.0, abs=1e-12)
    assert values["euc"][0, 0] == pytest.approx(0.0, abs=1e-12)


def test_semantic_columns_without_vectors_are_undefined():
    values, masks, relaxed = columns([{"x": 1}, {}], [{"x": 2}], None)
    for name in SEMANTIC_FIELDS:
        assert values[name].shape == (2, 1)
        assert np.isnan(values[name]).all() and not masks[name].any(), name
    assert not relaxed.any()


def test_semantic_columns_overflow_is_defined_and_not_finite():
    m = matrix(x=[1e200, -1e200], y=[-1e200, 1e200])
    big = [np.array([1e200, -1e200])]
    values, masks, _ = columns([{"x": 1}], [{"y": 1}], m, [*big, -big[0]])
    for name in ("wmd", "cos", "euc"):
        assert masks[name][0, 0] and not np.isfinite(values[name][0, 0]), name


VOCAB = ["t0", "t1", "t2", "t3", "t4"]
bags = st.dictionaries(st.sampled_from(VOCAB + ["oov0", "oov1"]), st.integers(0, 3), max_size=6)
small_vectors = st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(
    lambda v: np.array(v, dtype=float))  # zero and duplicate vectors are common
doc_vectors = st.one_of(st.none(), small_vectors)


def reference(fn, *args):
    """The value of a single-pair function, or None where it raises ValueError."""
    try:
        return fn(*args)
    except ValueError:
        return None


def reference_cos(u, v):
    if u is None or v is None or not np.linalg.norm(u) or not np.linalg.norm(v):
        return None
    return min(2.0, max(0.0, 1.0 - float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(bags, doc_vectors), min_size=1, max_size=3),
    st.lists(st.tuples(bags, doc_vectors), min_size=1, max_size=3),
    st.lists(small_vectors, min_size=len(VOCAB), max_size=len(VOCAB)),
)
def test_semantic_columns_match_single_pair_functions(src, tgt, vectors):
    m = EmbeddingMatrix(vocab=VOCAB, vectors=np.array(vectors))
    values, masks, relaxed = columns(
        [c for c, _ in src], [c for c, _ in tgt], m, [v for _, v in src + tgt])
    for i, (ca, va) in enumerate(src):
        for j, (cb, vb) in enumerate(tgt):
            a, b = TokenCounts(ca), TokenCounts(cb)
            want = {
                "wmd": reference(lambda *x: oracles.wmd(*x)[0], a, b, m),
                "scm": reference(oracles.soft_cosine, a, b, m),
                "cos": reference_cos(va, vb),
                "euc": None if va is None or vb is None else float(np.linalg.norm(va - vb)),
            }
            want["wmd_sim"] = None if want["wmd"] is None else 1.0 / (1.0 + want["wmd"])
            want["cos_sim"] = None if want["cos"] is None else 1.0 / (1.0 + want["cos"])
            for name in SEMANTIC_FIELDS:
                got = values[name][i, j]
                assert masks[name][i, j] == (want[name] is not None), name
                if want[name] is None:
                    assert np.isnan(got), name
                elif name in ("wmd", "wmd_sim"):
                    assert got == want[name], name  # bit-identical
                else:
                    assert got == pytest.approx(want[name], rel=1e-12, abs=1e-12), name
            single = reference(oracles.wmd, a, b, m)
            assert relaxed[i, j] == (single is not None and single[1])


def test_transport_rejects_non_finite_costs():
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            transport_cost([1, 1], [1], [[0.5], [bad]])


def highs_transport(a, b, cost):
    """The same transport problem solved by SciPy HiGHS. Its marginals are
    scaled by the other side's total, not normalized: HiGHS's absolute 1e-7
    feasibility tolerance would let a skewed weight of 1e-6 leak at no cost
    (it read -9.9e-9 on a problem whose optimum is 0)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    a, b, cost = (np.asarray(x, dtype=float) for x in (a, b, cost))
    n, k = cost.shape
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(k)), np.kron(np.ones(n), np.eye(k))])
    b_eq = np.concatenate([a * b.sum(), b * a.sum()])
    lp = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    assert lp.success
    return lp.fun / (a.sum() * b.sum())


def test_transport_rejects_totals_beyond_exact_bound():
    # cross-scaled supplies past 2**53 are not exact in float64
    with pytest.raises(ValueError, match=r"2\*\*53"):
        transport_cost([10**8, 1, 2], [3, 10**8], np.ones((3, 2)))


def test_transport_large_skewed_weights_match_highs():
    a, b = [10**7, 1, 2], [3, 10**8]  # totals multiply to about 1e15, inside the bound
    cost = np.random.default_rng(5).random((3, 2)) * 3.0
    assert transport_cost(a, b, cost) == pytest.approx(highs_transport(a, b, cost), rel=1e-9)


@st.composite
def degenerate_transport(draw, max_side=5):
    """Zero and skewed weights; integer costs in {0, 1, 2} (ties, zero-cost cells)
    or Euclidean costs between integer vectors in [-1, 1]^3 (duplicate vectors)."""
    weight = st.one_of(st.integers(0, 3), st.sampled_from([10**4, 10**6]))
    a = draw(st.lists(weight, min_size=1, max_size=max_side).filter(any))
    b = draw(st.lists(weight, min_size=1, max_size=max_side).filter(any))
    if draw(st.booleans()):
        cells = st.lists(st.sampled_from([0, 1, 2]), min_size=len(a) * len(b), max_size=len(a) * len(b))
        cost = np.array(draw(cells), dtype=float).reshape(len(a), len(b))
    else:
        point = st.tuples(*[st.integers(-1, 1)] * 3)
        va, vb = (np.array([draw(point) for _ in w], dtype=float) for w in (a, b))
        cost = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    return a, b, cost


@settings(max_examples=120, deadline=None)
@given(degenerate_transport())
def test_transport_degenerate_inputs_match_highs(problem):
    a, b, cost = problem
    assert transport_cost(a, b, cost) == pytest.approx(highs_transport(a, b, cost), rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(degenerate_transport(max_side=7), min_size=1, max_size=6))
def test_transport_costs_batch_invariant(problems):
    """Mixed shapes share a padded batch; each problem keeps the bits it gets alone."""
    together = transport_costs(problems)
    assert together.shape == (len(problems),)
    for k, (a, b, cost) in enumerate(problems):
        alone = transport_cost(a, b, cost)
        assert together[k] == alone
        assert alone == pytest.approx(highs_transport(a, b, cost), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("bad, message", [
    (([1, 1], [1], [[0.5]]), "does not match"),
    (([1, 1], [1], [[0.5], [np.nan]]), "finite"),
    (([0, 0], [1], [[0.5], [1.0]]), "positive total"),
    (([10**8, 1], [10**8], [[0.5], [1.0]]), r"2\*\*53"),
])
def test_transport_costs_name_the_failing_problem(bad, message):
    good = ([1, 2], [3], [[0.5], [1.0]])
    with pytest.raises(ValueError, match=rf"problem 1: .*{message}"):
        transport_costs([good, bad, good])


def test_transport_costs_empty_batch():
    assert transport_costs([]).shape == (0,)


def test_shape_batches_cap_padded_cells():
    rng = np.random.default_rng(3)
    exact = sorted((int(m), int(n), k, 0) for k, (m, n) in enumerate(rng.integers(1, 300, size=(400, 2))))
    batches = list(_shape_batches(exact))
    assert [pair for batch in batches for pair in batch] == [(i, j) for _, _, i, j in exact]
    sizes = {i: (m, n) for m, n, i, _ in exact}
    for batch in batches:
        rows, cols = zip(*(sizes[i] for i, _ in batch))
        assert len(batch) == 1 or len(batch) * max(rows) * max(cols) <= EXACT_WMD_PAIR_LIMIT


def test_wmd_bits_pinned():
    """Exact WMD column of an 8x8 synthetic testbed (20x20 bags, all 64 pairs
    solved in one batch) over fixed seeded word vectors, so that no change to
    the trainer reaches it. A change to the ground cost or to the solver's
    arithmetic or tie rules moves this pin; such a change must say why."""
    tb = generate_synthetic(3, 8, 8, 0.6)
    docs = [conventional_tokenize(a.raw_text) for a in tb.sources + tb.targets]
    counts = [count_tokens(doc) for doc in docs]
    vocab = sorted({tok for doc in docs for tok in doc})
    m = EmbeddingMatrix(vocab, np.random.default_rng(5).standard_normal((len(vocab), 8)))
    values, masks, relaxed = semantic_columns(counts[:8], counts[8:], m)
    assert masks["wmd"].all() and not relaxed.any()
    assert hashlib.sha256(values["wmd"].tobytes()).hexdigest() == (
        "8ecff05d8421697e5ee8c5880305d5e752925819aeed0dfaf61b776f6dfec212"
    )


ZIPF_PAIR = """
import json, sys
from tracex.corpus import load_testbed
from tracex.embeddings import load_embeddings
from tracex.semantics import wmd
from tracex.tokenization import conventional_tokenize, count_tokens
tb = load_testbed(sys.argv[1])
text = {a.id: a.raw_text for a in tb.sources + tb.targets}
a, b = (count_tokens(conventional_tokenize(text[k])) for k in sys.argv[3:5])
print(json.dumps(wmd(a, b, load_embeddings(sys.argv[2]))[0]))
"""


def test_exact_wmd_on_zipf_pair_matches_highs(tmp_path, monkeypatch):
    """Seed-1 pair S003->T004 of the wmd-zipf benchmark workload (41x50 bags):
    round-off used to relabel a finalized node, and the path trace looped until
    memory ran out. Solved in a capped child, checked against HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    inputs = workloads.build_wmd_zipf(1, tmp_path)

    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", ZIPF_PAIR, inputs.manifest, inputs.vectors, "S003", "T004"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    value = json.loads(proc.stdout)

    from tracex.embeddings import load_embeddings
    from tracex.tokenization import conventional_tokenize, count_tokens

    m = load_embeddings(inputs.vectors)
    bags = [count_tokens(conventional_tokenize(inputs.texts[k])) for k in ("source:S003", "target:T004")]
    tokens = [sorted(bag.counts) for bag in bags]
    weights = [np.array([bag.counts[t] for t in toks], float) for bag, toks in zip(bags, tokens)]
    va, vb = (m.vectors[[m.index[t] for t in toks]] for toks in tokens)
    cost = np.linalg.norm(va[:, None, :] - vb[None, :, :], axis=2)
    n, k = cost.shape
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(k)), np.kron(np.ones(n), np.eye(k))])
    b_eq = np.concatenate([weights[0] / weights[0].sum(), weights[1] / weights[1].sum()])
    lp = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    assert lp.success
    assert (n, k) == (41, 50)
    assert value == pytest.approx(lp.fun, rel=1e-9)
