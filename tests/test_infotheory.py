import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracex.infotheory import InfoRecord, counts_entropy, info_columns, info_record
from tracex.pipeline import NumericError, _check_finite
from tracex.tokenization import TokenCounts, count_tokens

import oracles
from oracles import extropy, min_shared_counts, pool

A = TokenCounts({"for": 14, "if": 3, "return": 10})
B = TokenCounts({"for": 10, "return": 20})


def test_pool_examples():
    assert pool(TokenCounts({"a": 1}), TokenCounts({"b": 1})).counts == {"a": 1, "b": 1}
    assert pool(A, B).counts == {"for": 24, "if": 3, "return": 30}
    assert pool(A, TokenCounts({})).counts == A.counts


def test_mi_disjoint_singletons_negative():
    rec = info_record(count_tokens(["x"]), count_tokens(["y"]))
    assert rec.mi == pytest.approx(-1.0, abs=1e-12)
    assert rec.loss == pytest.approx(1.0)
    assert rec.noise == pytest.approx(1.0)


def test_conditional_entropies_identical():
    rec = info_record(B, B)
    assert (rec.loss, rec.noise) == (pytest.approx(0.0), pytest.approx(0.0))


def test_info_record_independent_of_string_hashing():
    code = (
        "from tracex.infotheory import info_record\n"
        "from tracex.tokenization import TokenCounts\n"
        "a = TokenCounts({f'w{i}': i % 5 + 1 for i in range(30)})\n"
        "b = TokenCounts({f'w{i}': i % 3 + 1 for i in range(10, 40)})\n"
        "print(info_record(a, b))\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outputs) == 1


def test_min_shared_vector():
    shared = min_shared_counts(A, B)
    assert shared.counts == {"for": 10, "if": 0, "return": 10}
    assert min_shared_counts(A, A).counts == A.counts
    disjoint = min_shared_counts(count_tokens(["a"]), count_tokens(["b"]))
    assert disjoint.total == 0


def test_msi_entropy_and_extropy_binary():
    rec = info_record(A, B)
    assert rec.si == pytest.approx(1.0, abs=1e-12)
    assert rec.sx == pytest.approx(1.0, abs=1e-12)


def test_extropy_uniform_four():
    assert extropy([0.25] * 4) == pytest.approx(-4 * 0.75 * math.log2(0.75), abs=1e-12)


def test_info_record_identical():
    rec = info_record(A, A)
    h = counts_entropy(A)
    assert rec.mi == pytest.approx(h, abs=1e-12)
    assert rec.loss == pytest.approx(0.0, abs=1e-12)
    assert rec.noise == pytest.approx(0.0, abs=1e-12)
    assert rec.si == pytest.approx(h, abs=1e-12)
    assert rec.d1 == pytest.approx(0.0, abs=1e-12)
    assert not rec.null_shared


def test_info_record_worked_pair():
    rec = info_record(A, B)
    assert rec.si == pytest.approx(1.0)
    assert rec.mi == pytest.approx(rec.h_x + rec.h_y - rec.h_pool, abs=1e-9)
    assert rec.mi + rec.loss == pytest.approx(rec.h_x, abs=1e-9)
    assert rec.mi + rec.noise == pytest.approx(rec.h_y, abs=1e-9)


def test_info_record_disjoint_pair():
    rec = info_record(count_tokens(["aa", "bb"]), count_tokens(["cc"]))
    assert rec.null_shared
    assert rec.si == 0.0
    assert rec.sx == 0.0


def test_info_record_empty_side_flagged():
    rec = info_record(TokenCounts({}), B)
    assert isinstance(rec, InfoRecord)
    assert rec.h_x is None
    assert rec.h_y is not None
    assert rec.mi is None
    assert rec.null_shared


counts_strategy = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=8,
)


@given(counts_strategy, counts_strategy)
def test_identities_and_symmetry(ca, cb):
    a, b = TokenCounts(ca), TokenCounts(cb)
    rec = info_record(a, b)
    assert abs(rec.mi - (rec.h_x + rec.h_y - rec.h_pool)) < 1e-9
    assert abs(rec.mi + rec.loss - rec.h_x) < 1e-9
    assert abs(rec.mi + rec.noise - rec.h_y) < 1e-9
    rev = info_record(b, a)
    assert rec.mi == pytest.approx(rev.mi, abs=1e-12)
    assert (rec.si, rec.sx, rec.null_shared) == (rev.si, rev.sx, rev.null_shared)


@given(counts_strategy)
def test_entropy_bounds(ca):
    counts = TokenCounts(ca)
    h = counts_entropy(counts)
    assert -1e-12 <= h <= math.log2(len(ca)) + 1e-12


@given(counts_strategy, st.integers(min_value=1, max_value=20))
def test_entropy_scaling_invariance(ca, k):
    base = TokenCounts(ca)
    scaled = TokenCounts({t: c * k for t, c in ca.items()})
    assert counts_entropy(scaled) == pytest.approx(counts_entropy(base), abs=1e-12)


@given(counts_strategy, counts_strategy)
def test_disjoint_closed_form(ca, cb):
    a = TokenCounts({f"a_{t}": c for t, c in ca.items()})
    b = TokenCounts({f"b_{t}": c for t, c in cb.items()})
    wa = a.total / (a.total + b.total)
    binary = -(wa * math.log2(wa) + (1 - wa) * math.log2(1 - wa)) if 0 < wa < 1 else 0.0
    expected = wa * counts_entropy(a) + (1 - wa) * counts_entropy(b) + binary
    assert info_record(a, b).h_pool == pytest.approx(expected, abs=1e-9)


@given(counts_strategy, counts_strategy)
def test_si_zero_iff_at_most_one_shared_token(ca, cb):
    nonzero = len(ca.keys() & cb.keys())  # counts are positive
    assert (info_record(TokenCounts(ca), TokenCounts(cb)).si == 0.0) == (nonzero <= 1)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_two_outcome_extropy_equals_entropy(c1, c2):
    a = TokenCounts({"x": c1, "y": c2})
    rec = info_record(a, a)
    assert rec.sx == pytest.approx(rec.si, abs=1e-12)


def test_extropy_of_point_mass_is_float_zero():
    assert repr(info_record(A, TokenCounts({"for": 2})).sx) == "0.0"


# Bags for the all-pairs engine: empty, single-token and skewed counts over a
# small alphabet, so that shared, disjoint and identical pairs all occur.
bag_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e", "f", "gg", "hh"]),
    st.one_of(st.integers(1, 3), st.integers(1, 10**6)),
    max_size=6,
)


def assert_columns_match_records(src, tgt):
    values, masks, null_shared = info_columns(src, tgt)
    assert set(values) == set(masks) == {f.name for f in fields(InfoRecord)} - {"null_shared"}
    for i, a in enumerate(src):
        for j, b in enumerate(tgt):
            rec = oracles.info_record(a, b)
            assert bool(null_shared[i, j]) == rec.null_shared
            for name in values:
                expected = getattr(rec, name)
                got = values[name][i, j]
                assert bool(masks[name][i, j]) == (expected is not None), name
                if expected is None:
                    assert math.isnan(got), name
                else:
                    assert abs(got - expected) <= 1e-12, (name, got, expected)
                    if expected == 0.0 and name in ("h_pool", "si", "sx"):
                        assert got == 0.0, name  # point masses stay exact


@given(st.lists(bag_strategy, min_size=1, max_size=4), st.lists(bag_strategy, min_size=1, max_size=4))
def test_info_columns_match_info_record(src_dicts, tgt_dicts):
    src = [TokenCounts(d) for d in src_dicts]
    tgt = [TokenCounts(d) for d in tgt_dicts]
    tgt.append(TokenCounts(dict(src_dicts[0])))  # identical bags
    tgt.append(TokenCounts({f"x{t}": c for t, c in src_dicts[0].items()}))  # disjoint bags
    assert_columns_match_records(src, tgt)


def test_info_columns_degenerate_bags():
    bags = [
        TokenCounts({}), TokenCounts({"a": 1}), TokenCounts({"a": 7}), TokenCounts({"b": 2}),
        TokenCounts({"a": 1, "b": 1}), A, B, TokenCounts({"for": 10**6, "if": 1}),
    ]
    assert_columns_match_records(bags, bags)
    values, _, _ = info_columns(bags, bags)
    assert values["h_pool"][1, 2] == 0.0 and values["mi"][1, 2] == 0.0  # same point mass
    assert values["si"].shape == (len(bags), len(bags))


def test_check_finite_only_over_defined_entries():
    values, masks, _ = info_columns([TokenCounts({}), A], [B])
    records = {"source_id": ["s0", "s1"], "target_id": ["t0", "t0"]}
    records.update((name, v.ravel()) for name, v in values.items())
    masks = {name: m.ravel() for name, m in masks.items()}
    assert math.isnan(records["mi"][0]) and not masks["mi"][0]
    _check_finite(records, masks)  # NaN at the undefined pair is fine
    records["mi"][1] = np.nan
    with pytest.raises(NumericError, match=r"mi for pair \(s1, t0\)"):
        _check_finite(records, masks)
