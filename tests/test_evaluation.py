from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracex.evaluation import (
    EvaluationError,
    correlation_table,
    pearson,
    pr_auc,
    roc_auc,
    summarize,
    tie_groups,
)
from tracex.report import BY_LINKS_METRICS, by_links_table


def brute_force_auc(labels, scores):
    pos = [s for l, s in zip(labels, scores) if l]
    neg = [s for l, s in zip(labels, scores) if not l]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_roc_auc_basics():
    assert roc_auc(tie_groups([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])) == 1.0
    assert roc_auc(tie_groups([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])) == 0.5
    assert roc_auc(tie_groups([1, 1, 0, 0], [0.9, 0.4, 0.5, 0.1])) == pytest.approx(0.75)


def test_roc_auc_single_class_error():
    with pytest.raises(EvaluationError):
        roc_auc(tie_groups([1, 1], [0.5, 0.7]))


def test_roc_auc_monotone_transform_invariance():
    rng = np.random.default_rng(1)
    labels = rng.random(100) < 0.3
    labels[0], labels[1] = True, False
    scores = rng.normal(size=100)
    assert roc_auc(tie_groups(labels, scores)) == pytest.approx(roc_auc(tie_groups(labels, np.exp(scores))))


def test_roc_auc_sign_flip():
    rng = np.random.default_rng(2)
    labels = rng.random(50) < 0.4
    labels[0], labels[1] = True, False
    scores = rng.normal(size=50)
    assert roc_auc(tie_groups(labels, -scores)) == pytest.approx(1.0 - roc_auc(tie_groups(labels, scores)))


@given(st.integers(min_value=0, max_value=10_000))
def test_roc_auc_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    labels = rng.random(n) < 0.5
    labels[0], labels[1] = True, False
    scores = rng.integers(0, 6, size=n).astype(float)  # many ties
    assert roc_auc(tie_groups(labels, scores)) == pytest.approx(brute_force_auc(labels, scores), abs=1e-12)


tied_case = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=-3, max_value=3)), min_size=2, max_size=80
).filter(lambda pairs: len({label for label, _ in pairs}) == 2)


@given(tied_case)
def test_roc_auc_heavy_ties_equals_mann_whitney_count(pairs):
    labels, scores = zip(*pairs)
    scores = [s / 2.0 for s in scores]  # at most 7 distinct values
    assert roc_auc(tie_groups(labels, scores)) == pytest.approx(brute_force_auc(labels, scores), abs=1e-12)


def trapezoid_pr_auc(labels, scores):
    """Threshold sweep one distinct score at a time, as a plain loop."""
    pos = sum(labels)
    area, recall, precision = 0.0, 0.0, None
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for l, s in zip(labels, scores) if l and s >= t)
        n = sum(1 for s in scores if s >= t)
        r, p = tp / pos, tp / n
        if precision is None:
            precision = p
        area += (r - recall) * (precision + p) / 2.0
        recall, precision = r, p
    return area


@given(tied_case)
def test_pr_auc_heavy_ties_equals_threshold_sweep(pairs):
    labels, scores = zip(*pairs)
    assert pr_auc(tie_groups(labels, scores)) == pytest.approx(trapezoid_pr_auc(labels, scores), abs=1e-12)


@given(tied_case, st.sampled_from([1, 2, 3, 4096]))
def test_pr_auc_bits_equal_the_sweep_in_blocks_of_any_size(pairs, block):
    """The curve walked block by block adds the sweep's trapezoids in the
    sweep's order, so the bits are the plain loop's."""
    labels, scores = zip(*pairs)
    with mock.patch("tracex.evaluation.AREA_BLOCK", block):
        got = pr_auc(tie_groups(labels, scores))
    assert got.hex() == trapezoid_pr_auc(labels, scores).hex()


def test_pr_auc_perfect_ranking():
    assert pr_auc(tie_groups([1, 1, 0, 0, 0], [5, 4, 3, 2, 1])) == pytest.approx(1.0)
    assert pr_auc(tie_groups([1], [0.9])) == pytest.approx(1.0)
    assert pr_auc(tie_groups([1, 0], [0.9, 0.5])) == pytest.approx(1.0)


def test_pr_auc_random_scores_near_positive_rate():
    rng = np.random.default_rng(7)
    n = 10_000
    p = 0.2
    labels = rng.random(n) < p
    scores = rng.random(n)
    assert pr_auc(tie_groups(labels, scores)) == pytest.approx(p, abs=0.02)


def test_pr_auc_duplicate_threshold_stable():
    labels = [1, 0, 1, 0, 0]
    scores = [0.9, 0.7, 0.5, 0.3, 0.1]
    base = pr_auc(tie_groups(labels, scores))
    again = pr_auc(tie_groups(labels + [0], scores + [0.3]))  # re-use an existing threshold
    assert 0.0 <= base <= 1.0
    assert 0.0 <= again <= 1.0


def test_pr_auc_needs_positive():
    with pytest.raises(EvaluationError):
        pr_auc(tie_groups([0, 0], [0.1, 0.2]))


def test_pearson_basics():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [2, 1, 0]) == pytest.approx(-1.0)
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)
    with pytest.raises(EvaluationError):
        pearson([1, 2], [3, 3])


def test_pearson_affine_invariance_and_sign():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=40)
    ys = rng.normal(size=40)
    r = pearson(xs, ys)
    assert pearson(3 * xs + 2, ys) == pytest.approx(r)
    assert pearson(xs, -ys) == pytest.approx(-r)


def test_summarize():
    s = summarize([2, 2, 2])
    assert (s.n, s.mean, s.std) == (3, 2.0, 0.0)
    s = summarize([1, 3])
    assert s.mean == 2.0
    assert s.std == pytest.approx(np.sqrt(2))
    assert summarize([5.0]).std == 0.0
    assert s.formatted() == "2.00[1.41]"
    with pytest.raises(EvaluationError):
        summarize([])


def label_records(is_link, **columns):
    """Records (layout in tracex.report) with the given float columns and
    every other by-links metric undefined (NaN)."""
    n = len(is_link)
    records = {m: np.full(n, np.nan) for m in [*BY_LINKS_METRICS, "loss", "noise"]}
    records.update({m: np.array(v, dtype=np.float64) for m, v in columns.items()})
    return {"is_link": np.array(is_link, dtype=bool), **records}


def test_segregate_by_label():
    records = label_records([True, True, False], mi=[3.0, 5.0, 0.5], si=[1.0, None, 0.0],
                            loss=[1.0, 2.0, 4.0])
    out = by_links_table(records)
    assert out["link"]["mi"].mean == 4.0
    assert out["link"]["si"].n == 1  # NaN excluded per metric
    assert out["non_link"]["mi"].mean == 0.5
    assert out["link"]["ci_noise"].mean == 1.5  # ci_noise summarizes loss
    assert out["link"]["scm"] is None  # undefined for every pair


def test_segregate_all_links_flags_empty():
    out = by_links_table(label_records([True], mi=[1.0]))
    assert out["non_link"]["mi"] is None


def test_correlation_table():
    records = {"mi": np.arange(10.0), "wmd_sim": 2 * np.arange(10.0), "flat": np.ones(10),
               "gappy": np.array([1.0] + [np.nan] * 9)}
    records["mi"][3] = np.nan
    cells = correlation_table(records, ["wmd_sim"], ["mi", "flat", "gappy"])
    by_key = {(c.metric_a, c.metric_b): c for c in cells}
    assert by_key[("wmd_sim", "mi")].pearson_r == pytest.approx(1.0)
    assert by_key[("wmd_sim", "mi")].n == 9  # pairs with a NaN side are left out
    assert by_key[("wmd_sim", "flat")].pearson_r is None  # zero variance flagged
    assert (by_key[("wmd_sim", "gappy")].pearson_r, by_key[("wmd_sim", "gappy")].n) == (None, 1)
