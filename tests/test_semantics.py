import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tracex.semantics as semantics
import tracex.transport as transport
from tracex.corpus import generate_synthetic
from tracex.embeddings import EmbeddingMatrix
from tracex.semantics import (
    EXACT_WMD_PAIR_LIMIT,
    _ground_cost,
    relaxed_wmd,
    semantic_columns,
    soft_cosine,
    wmd,
)
from tracex.tokenization import TokenCounts, conventional_tokenize, count_tokens
from tracex.transport import BATCH_BYTES, _min_cost_flows, _shape_batches, exact_costs, transport_cost

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


def test_soft_cosine_solves_no_transport_problem(monkeypatch):
    """soft_cosine reads the SCM step of semantic_columns alone: with the
    exact solver refusing every call it returns the engine's bits."""
    rng = np.random.default_rng(8)
    vocab = [f"w{k}" for k in range(120)]
    m = EmbeddingMatrix(vocab=vocab, vectors=rng.normal(size=(120, 16)))
    a, b = (TokenCounts({t: int(rng.integers(1, 4)) for t in rng.choice(vocab, 100, replace=False)})
            for _ in range(2))
    values, _, relaxed = semantic_columns([a], [b], m)
    assert not relaxed[0, 0]  # 100 x 100 cells: an exact problem

    def refuse(*args):
        raise AssertionError("soft_cosine solved a transport problem")

    monkeypatch.setattr(semantics, "exact_costs", refuse)
    assert soft_cosine(a, b, m) == values["scm"][0, 0]
    with pytest.raises(AssertionError, match="solved a transport problem"):
        wmd(a, b, m)


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
    """--vectorizer none: the six columns are one read-only all-NaN array,
    and no pair is bounded or solved."""
    wmd_pairs: dict = {}
    values, masks, relaxed = semantic_columns(
        [TokenCounts({"x": 1}), TokenCounts({})], [TokenCounts({"x": 2})], None, None, wmd_pairs)
    for name in SEMANTIC_FIELDS:
        assert values[name] is values["wmd"], name
        assert values[name].shape == (2, 1)
        assert np.isnan(values[name]).all() and not masks[name].any(), name
    with pytest.raises(ValueError, match="read-only"):
        values["scm"][0, 0] = 0.0
    assert not relaxed.any()
    assert wmd_pairs == {"batches": 0, "exact": 0, "relaxed": 0, "augmentations": 0, "steps": 0}


def test_weight_totals_past_the_exact_bound_get_the_relaxed_bound():
    """A pair whose weight totals multiply past 2**53 is bounded and flagged,
    as a pair of too many cells is; the pair beside it is still solved."""
    m = matrix(a=[0.0, 0.0], b=[1.0, 0.0], c=[0.0, 2.0])
    src = [TokenCounts({"a": 10**8, "b": 1}), TokenCounts({"a": 1, "b": 1})]
    tgt = [TokenCounts({"a": 10**8, "c": 3})]
    wmd_pairs: dict = {}
    values, masks, relaxed = semantic_columns(src, tgt, m, None, wmd_pairs)
    assert relaxed.tolist() == [[True], [False]]
    assert wmd_pairs == {"exact": 1, "relaxed": 1, "batches": 1, "augmentations": 3, "steps": 4}
    weights = [np.array([10**8, 1]), np.array([10**8, 3])]
    cost = np.array([[0.0, 2.0], [1.0, np.sqrt(5.0)]])
    assert values["wmd"][0, 0] == relaxed_wmd(*weights, cost)
    assert values["wmd"][1, 0] == wmd(src[1], tgt[0], m)[0]
    assert masks["wmd"].all()


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(bags, min_size=1, max_size=3),
    st.lists(bags, min_size=1, max_size=3),
    st.lists(small_vectors, min_size=len(VOCAB), max_size=len(VOCAB)),
)
def test_overflowing_pair_mid_batch_keeps_neighbours(src, tgt, vectors):
    """Source 1 is source 0 with one in-vocab token swapped for a word whose
    vector overflows the ground cost, so its pairs sit between equal shapes
    of one batch. They stay NaN (the solver would reject them); every other
    pair keeps the bits of its own single-pair solve."""
    in_vocab = [t for t, c in src[0].items() if c > 0 and t in VOCAB]
    assume(in_vocab)
    swapped = {("huge" if t == in_vocab[0] else t): c for t, c in src[0].items()}
    src = [src[0], swapped, src[0], *src[1:]]
    m = EmbeddingMatrix(vocab=VOCAB + ["huge"], vectors=np.array([*vectors, np.full(3, 1e200)]))
    values, masks, relaxed = columns(src, tgt, m)
    for i, ca in enumerate(src):
        for j, cb in enumerate(tgt):
            with np.errstate(over="ignore"):
                want = reference(oracles.wmd, TokenCounts(ca), TokenCounts(cb), m)
            got = values["wmd"][i, j]
            if want is None:
                assert not masks["wmd"][i, j] and np.isnan(got)
            elif np.isnan(want[0]):
                assert masks["wmd"][i, j] and np.isnan(got) and not relaxed[i, j]
            else:
                assert got == want[0]  # bit-identical
    assert np.isnan(values["wmd"][1][masks["wmd"][1]]).all()


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
def degenerate_transport(draw, max_side=5, integral=False):
    """Zero and skewed weights; free, 1 x k, k x 1 and 2 x k shapes; integer
    costs in {0, 1, 2} (ties, zero-cost cells) or Euclidean costs between
    integer vectors in [-1, 1]^3 (duplicate vectors), or their L1 distances
    when integral."""
    weight = st.one_of(st.integers(0, 3), st.sampled_from([10**4, 10**6]))
    k, free = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    m, n = draw(st.sampled_from([(free, k), (1, k), (k, 1), (2, k)]))
    a = draw(st.lists(weight, min_size=m, max_size=m).filter(any))
    b = draw(st.lists(weight, min_size=n, max_size=n).filter(any))
    if draw(st.booleans()):
        cells = st.lists(st.sampled_from([0, 1, 2]), min_size=len(a) * len(b), max_size=len(a) * len(b))
        cost = np.array(draw(cells), dtype=float).reshape(len(a), len(b))
    else:
        point = st.tuples(*[st.integers(-1, 1)] * 3)
        va, vb = (np.array([draw(point) for _ in w], dtype=float) for w in (a, b))
        cost = np.linalg.norm(va[:, None, :] - vb[None, :, :], ord=1 if integral else None, axis=2)
    return a, b, cost


@settings(max_examples=120, deadline=None)
@given(degenerate_transport())
def test_transport_degenerate_inputs_match_highs(problem):
    a, b, cost = problem
    assert transport_cost(a, b, cost) == pytest.approx(highs_transport(a, b, cost), rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(degenerate_transport(max_side=7), min_size=1, max_size=6))
def test_exact_costs_match_single_problems(problems):
    """Mixed shapes share a batch, padded to its largest problem; each
    problem keeps the bits it gets alone."""
    got = oracles.exact_transport(problems)
    assert got.shape == (len(problems),)
    for k, (a, b, c) in enumerate(problems):
        alone = transport_cost(a, b, c)
        assert got[k] == alone
        assert alone == pytest.approx(highs_transport(a, b, c), rel=1e-9, abs=1e-12)


INTEGRAL_COST = [[0.0, 1.0, 2.0], [2.0, 1.0, 0.0], [1.0, 0.0, 1.0]]


def unsigned_for(supply: int) -> np.dtype:
    """The narrowest unsigned dtype that holds supply: the solver's flow dtype."""
    return np.dtype(next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if supply <= np.iinfo(t).max))


def wide_supply(a, b):
    """A problem of weights a and b on the first cells of INTEGRAL_COST."""
    return a, b, np.array(INTEGRAL_COST)[:len(a), :len(b)]


@settings(max_examples=80, deadline=None)
@given(st.lists(degenerate_transport(max_side=7, integral=True), min_size=1, max_size=6),
       st.integers(0, 3), st.integers(0, 3))
# largest cross-scaled supplies past 255, 65,535 and 2**32, totals at the 2**53
# bound, and a demand (300) past the one-byte flows of its supplies
@example([wide_supply([1, 3], [100, 2, 1]), wide_supply([2], [1, 1])], 1, 0)
@example([wide_supply([300, 1], [250, 7]), wide_supply([1, 1, 1], [3])], 0, 2)
@example([wide_supply([10**5, 3, 1], [10**5, 2]), wide_supply([1], [1])], 0, 0)
@example([wide_supply([2**26 - 1, 1], [2**27 - 3, 2, 1]), wide_supply([5, 1], [1, 5])], 2, 1)
@example([wide_supply([1, 1, 1], [100, 1])], 0, 0)
def test_column_steps_give_the_node_by_node_bits(problems, extra_m, extra_n):
    """The column-step search gives the flows and costs of the node-by-node
    search (tests/oracles.py) bit for bit, on mixed padded stacks. The costs
    are integers, so every distance is exact and the two orders agree; with
    irrational costs, distances that tie exactly can differ in the last bits
    and the two searches may break such a tie differently. The flows come in
    the narrowest unsigned dtype that holds the largest cross-scaled supply.
    The stack, padded past its largest problem, is read, not written; the
    costs of `exact_costs`, which builds its own stacks, are the same bits."""
    cost, weights_a, weights_b = oracles.padded_stack(problems, extra_m, extra_n)
    want_costs, want_flow = oracles.node_transport(cost, weights_a, weights_b)
    stack = cost.copy()
    flow = _min_cost_flows(oracles.cross_scaled(cost, weights_a, weights_b), cost, {"augmentations": 0, "steps": 0})
    assert np.array_equal(cost, stack)
    assert flow.dtype == unsigned_for(max(max(a) * sum(b) for a, b, _ in problems))
    assert flow.astype(np.float64).tobytes() == want_flow.tobytes()
    assert oracles.exact_transport(problems).tobytes() == want_costs.tobytes()


def test_solver_memory_stays_near_one_stack():
    """Batches of c7's shape, 20x20 bags: 327 problems as under a cap of
    131,072 cells, 582 as under the byte budget. The solver's traced peak
    stays within one cost stack: one-byte flows and predecessors, the
    search's arrays and no (problems, M + N) copies (0.95 and 0.79 stacks).
    Float64 flows took it to 2.07 stacks, and scans without chunks to four."""
    for problems in (327, 582):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((problems, 2, 20, 16))
        diff = vecs[:, 0, :, None, :] - vecs[:, 1, None, :, :]
        cost = np.sqrt((diff * diff).sum(axis=3))
        weights_a, weights_b = zip(*rng.integers(1, 4, (problems, 2, 20)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _min_cost_flows(oracles.cross_scaled(cost, weights_a, weights_b), cost, {"augmentations": 0, "steps": 0})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= cost.nbytes, (problems, peak / cost.nbytes)


LAZY_IMPORT = """
import json, sys
from tracex.cli import main
out, module, args = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
assert main(["synth", "--seed", "3", "--sources", "6", "--targets", "6", "--out", out + "/tb"]) == 0
assert main(["analyze", "--manifest", out + "/tb/manifest.json", "--out", out + "/out", *args]) == 0
print(module in sys.modules)
"""


def analyze_imports(tmp_path, module: str, *args: str) -> bool:
    """Whether an analyze of a small synthetic testbed imports `module`, in a fresh child."""
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT, str(tmp_path), module, json.dumps(args)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()[-1] == "True"


def test_skipgram_analyze_leaves_numpy_ma_unimported(tmp_path):
    """`np.unique` imports numpy.ma lazily, 1.1 MiB of RSS; a skip-gram
    analyze, which runs the solver, never needs it."""
    assert not analyze_imports(tmp_path, "numpy.ma", "--dim", "8", "--epochs", "2")


def test_info_only_analyze_leaves_numpy_random_unimported(tmp_path):
    """numpy.random is imported lazily and costs about 6 MiB of RSS; an
    `analyze --vectorizer none` run trains nothing and never needs it."""
    assert not analyze_imports(tmp_path, "numpy.random", "--vectorizer", "none")


@pytest.mark.parametrize("a1, b1, message", [
    ([0], [1], "positive total"),
    ([1.5], [1], "nonnegative integers"),
    ([0, 0], [1], "positive total"),
    ([10**8, 1], [10**8], r"2\*\*53"),
    ([1.5, 1], [1], "nonnegative integers"),
    ([1, 2], [-1], "nonnegative integers"),
])
def test_exact_costs_name_the_callers_problem(a1, b1, message):
    """Problem 1 is the smaller and goes first in its batch; its error names it as 1."""
    def fill(k, slot):
        slot.fill(1.0)
    with pytest.raises(ValueError, match=rf"problem 1: .*{message}"):
        exact_costs([np.array([1, 1, 1]), np.array(a1)], [np.array([1, 1, 1]), np.array(b1)], fill)


@pytest.mark.parametrize("budget", [BATCH_BYTES, 1])
def test_exact_costs_check_each_problem_once(monkeypatch, budget):
    """Each problem's weights are checked once, in the caller's numbering,
    whether it is solved or its slot is not finite, in one batch or in one
    batch per problem."""
    checked, calls = transport._weights, []
    monkeypatch.setattr(transport, "_weights", lambda a, b, k: calls.append(k) or checked(a, b, k))
    monkeypatch.setattr(transport, "BATCH_BYTES", budget)
    weights_a = [[1, 2, 3], [1], [2, 1], [1, 1, 1], [4]]
    weights_b = [[1, 1], [3, 1, 2], [1], [1, 2], [2, 2]]

    def fill(k, slot):
        slot.fill(np.nan if k == 2 else 1.0 + k)
    costs, counts = exact_costs(weights_a, weights_b, fill)
    assert sorted(calls) == list(range(5))
    assert np.isnan(costs[2]) and counts["exact"] == 4
    assert counts["batches"] == (1 if budget == BATCH_BYTES else 4)


def test_transport_cost_checks_the_cost_shape():
    with pytest.raises(ValueError, match=r"problem 0: cost shape \(1, 1\) does not match \(2, 1\)"):
        transport_cost([1, 1], [1], [[0.5]])


@pytest.mark.parametrize("a", [[1.5, 1], [1, -1, 2], [np.nan, 1], [np.inf, 1], [1e30, 1],
                               [10**20, 1], ["1", "1"], [True, False]])
def test_transport_weights_must_be_nonnegative_integers(a):
    # cast to int, [1.5, 1] would read as [1, 1], at cost 0 where the optimum is 0.1
    with pytest.raises(ValueError, match="problem 0: weights must be nonnegative integers"):
        transport_cost(a, [1, 1], np.ones((len(a), 2)) - np.eye(len(a), 2))


@settings(max_examples=60, deadline=None)
@given(degenerate_transport())
def test_transport_integral_weights_of_any_dtype_give_the_same_bits(problem):
    a, b, cost = problem
    want = transport_cost(a, b, cost)
    for dtype in (np.float64, np.int32, np.uint32):
        assert transport_cost(np.array(a, dtype=dtype), np.array(b, dtype=dtype), cost) == want


def test_exact_costs_of_no_problems():
    def fill(k, slot):
        raise AssertionError("no slot to fill")
    costs, counts = exact_costs([], [], fill)
    assert costs.shape == (0,)
    assert counts == {"exact": 0, "batches": 0, "augmentations": 0, "steps": 0}


def batch_bytes(entries) -> int:
    """Bytes of a batch's padded float64 cost stack and its flow stack, whose
    unsigned dtype holds the batch's largest supply."""
    cell = 8 + unsigned_for(max(e[2] for e in entries)).itemsize
    return len(entries) * max(e[0] for e in entries) * max(e[1] for e in entries) * cell


def test_shape_batches_cap_padded_cells():
    """Batches keep exact's order, come with their padded stack shape, stay
    within BATCH_BYTES, the bytes of a float64 cost and a float64 flow on
    twice the cells of the largest exact WMD problem, and are cut only where
    the next entry would break that budget. Supplies span every flow dtype."""
    assert BATCH_BYTES == 2 * EXACT_WMD_PAIR_LIMIT * 16 == 2 << 20
    rng = np.random.default_rng(3)
    supplies = rng.choice([1, 200, 300, 70_000, 2**32 + 1, 2**53], size=400)
    exact = sorted((int(m), int(n), int(s)) for (m, n), s in zip(rng.integers(1, 300, size=(400, 2)), supplies))
    batches = list(_shape_batches(exact))
    assert [entry for batch, _ in batches for entry in batch] == exact
    for (batch, shape), following in zip(batches, [b for b, _ in batches[1:]] + [None]):
        assert shape == (len(batch), max(e[0] for e in batch), max(e[1] for e in batch))
        assert batch_bytes(batch) <= BATCH_BYTES
        if following is not None:
            assert batch_bytes(batch + following[:1]) > BATCH_BYTES


def test_shape_batches_fit_c7_in_two_batches():
    """c7's 900 problems of 20x20 cells go in two batches while their flows
    fit one byte (c7's supplies are at most 153) or two, and in three once
    they need four bytes."""
    for supply, widths in ((153, [582, 318]), (300, [524, 376]), (70_000, [436, 436, 28])):
        exact = [(20, 20, supply)] * 900
        assert [shape for _, shape in _shape_batches(exact)] == [(b, 20, 20) for b in widths]

def test_batch_cuts_leave_every_wmd_bit(monkeypatch):
    """Mixed bag shapes, one exact pair whose ground cost overflows and one
    pair past the 2**53 total bound, solved at the default budget and at one
    problem per batch: every WMD bit and the augmentations stay, and each
    solved problem is a batch of its own."""
    rng = np.random.default_rng(4)
    vocab = [f"w{k}" for k in range(30)]
    vectors = {t: rng.normal(size=4) for t in vocab}
    vectors["huge"], vectors["tiny"] = [1e154, 0, 0, 0], [-1e154, 0, 0, 0]  # 2e154 apart: the square overflows
    m = matrix(**vectors)
    src, tgt = ([{str(t): int(rng.integers(1, 4)) for t in rng.choice(vocab, size, replace=False)}
                 for size in sizes] for sizes in ((1, 3, 5, 8, 8), (2, 3, 7, 4)))
    src += [{"huge": 1, "w0": 2}, {"w1": 10**8}]
    tgt += [{"tiny": 1}, {"w2": 10**8}]

    def solve():
        counts = {}
        values, _, relaxed = semantic_columns([TokenCounts(c) for c in src], [TokenCounts(c) for c in tgt],
                                              m, None, counts)
        return values["wmd"], relaxed, counts

    wmd_default, relaxed, default = solve()
    monkeypatch.setattr(transport, "BATCH_BYTES", 1)  # one problem per batch
    wmd_narrow, _, narrow = solve()
    assert relaxed[-1, -1] and relaxed.sum() == 1
    assert np.isnan(wmd_default[-2, -2]) and np.isnan(wmd_default).sum() == 1
    assert default["exact"] == wmd_default.size - 2 and default["batches"] == 1
    assert wmd_default.tobytes() == wmd_narrow.tobytes()
    assert default["augmentations"] == narrow["augmentations"]
    assert narrow["batches"] == narrow["exact"] == default["exact"]


def test_relaxed_ground_cost_goes_in_row_blocks():
    """A 600x600 pair at dim 16 holds its (cells, dim) differences for
    EXACT_WMD_PAIR_LIMIT cells at a time, not for all 360,000 cells at once:
    about 19 MiB traced instead of 90. Rows keep their bits across blocks."""
    rng = np.random.default_rng(6)
    va, vb = rng.normal(size=(600, 16)), rng.normal(size=(600, 16))
    tracemalloc.start()
    try:
        cost = _ground_cost(va, vb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cost.nbytes + 3 * EXACT_WMD_PAIR_LIMIT * 16 * 8, peak / 2**20
    for row in (0, 108, 109, 599):  # blocks of 109 rows
        diff = va[row] - vb
        assert cost[row].tobytes() == np.sqrt((diff * diff).sum(axis=1)).tobytes()


def test_round_without_flow_raises(monkeypatch):
    """A round that places no flow would repeat forever; the solver raises
    instead. Flows one dtype too narrow (uint16 for supplies of 65,536)
    make the bottleneck 0."""
    monkeypatch.setattr(transport, "flow_dtype", lambda supply: np.dtype(np.uint16))
    with pytest.raises(RuntimeError, match="placed no flow"):
        transport_cost([256], [256], [[0.0]])


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
