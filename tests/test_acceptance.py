"""Acceptance suite: one test per release criterion.

Each test asserts a single gating criterion at its stated tolerance, so the
``pytest -v`` report reads as one pass/fail line per criterion.
"""

import math
import os
import time

import numpy as np
import pytest

from tracex.corpus import generate_synthetic, load_testbed, write_testbed
from tracex.evaluation import roc_auc, tie_groups
from tracex.infotheory import info_columns, info_record
from tracex.pipeline import RunConfig, analyze_testbed, run_analysis
from tracex.report import RECORD_COLUMNS, BY_LINKS_METRICS, information_table
from tracex.semantics import relaxed_wmd
from tracex.tokenization import TokenCounts, conventional_tokenize, count_tokens

from oracles import exact_transport, min_shared_counts

# Published per-testbed means: (name, h_x, h_y, noise, loss, mi).  Frozen
# reference data; the identity checks below validate that the implemented
# pooled-entropy construction satisfies the same arithmetic the published
# numbers do.
PUBLISHED_ROWS = [
    ("libest-ex0", 5.54, 7.77, 0.18, 2.4, 5.37),
    ("csc-ex0", 3.42, 5.91, 0.21, 2.7, 3.21),
    ("libest-ex1", 6.58, 7.33, 0.12, 0.86, 6.46),
    ("csc-ex1", 4.68, 6.6, 0.17, 2.08, 4.52),
    ("libest-ex2", 6.54, 7.47, 0.14, 1.07, 6.4),
    ("csc-ex2", 4.42, 6.56, 0.26, 2.4, 4.16),
    ("libest-ex3", 5.54, 7.77, 0.18, 2.4, 5.37),
    ("csc-ex3", 3.42, 5.91, 0.21, 2.7, 3.21),
    ("albergate", 6.62, 6.18, 0.91, 0.47, 5.7),
    ("ebt", 2.97, 4.73, 0.25, 2.01, 2.72),
    ("etour", 5.23, 5.77, 0.53, 1.07, 4.7),
    ("itrust", 3.93, 5.56, 0.33, 1.96, 3.6),
    ("smos", 5.09, 5.7, 0.55, 1.16, 4.54),
]

CODE_SNIPPET = '''\
import sys
import traceback

def fireException(message):
    try:
        with open("buddy_script_error.txt","w") as file:
        file.write(str(message))
        print(message)
        traceback.print_exc()
        sys.exit(-1)
    except IOError:
        traceback.print_exc()
        sys.exit(-1)
'''


def random_counts(rng, max_support=8, max_count=30, alphabet=40):
    support = rng.choice(alphabet, size=rng.integers(1, max_support + 1), replace=False)
    return TokenCounts({f"t{i}": int(rng.integers(1, max_count + 1)) for i in support})


def test_criterion_1_published_identity_fixture():
    start = time.perf_counter()
    for name, h_x, h_y, noise, loss, mi in PUBLISHED_ROWS:
        assert abs(mi + noise - h_x) <= 0.03, name
        assert abs(mi + loss - h_y) <= 0.03, name
    # the same identities hold for the implementation's reported columns
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = random_counts(rng), random_counts(rng)
        values, _, _ = info_columns([a], [b])
        records = {key: column.ravel() for key, column in values.items()}
        table = information_table(records, "fixture")
        assert abs(table["mi"] + table["ci_noise"] - table["h_x"]) <= 1e-9
        assert abs(table["mi"] + table["ci_loss"] - table["h_y"]) <= 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_2_worked_examples():
    # a two-word title collapses to a single token: zero bits, exactly
    tokens = conventional_tokenize("B dtimeout")
    assert tokens == ["dtimeout"]
    title = count_tokens(tokens)
    assert info_record(title, title).h_x == 0.0
    # non-gating calibration: small code file lands near 4.16 bits
    snippet = count_tokens(conventional_tokenize(CODE_SNIPPET))
    assert info_record(snippet, snippet).h_x == pytest.approx(4.16, abs=0.5)


def test_criterion_3_min_shared_example():
    a = TokenCounts({"for": 14, "if": 3, "return": 10})
    b = TokenCounts({"for": 10, "if": 0, "return": 20})
    shared = min_shared_counts(a, b)  # the definition, from the reference
    assert shared.counts == {"for": 10, "if": 0, "return": 10}
    record = info_record(a, b)
    assert record.si == 1.0
    assert record.sx == record.si  # binary case: Sx = Si


def test_criterion_4_exact_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        a, b = random_counts(rng), random_counts(rng)
        ab, ba = info_record(a, b), info_record(b, a)
        h_a, h_b = ab.h_x, ab.h_y
        # entropy bounds
        assert 0.0 <= h_a <= math.log2(len(a.counts)) + 1e-12
        # exact identities mi + loss = h_x, mi + noise = h_y
        assert abs(ab.mi + ab.loss - h_a) <= 1e-9
        assert abs(ab.mi + ab.noise - h_b) <= 1e-9
        # symmetry; the min-shared vector is symmetric, so si, sx and the flag are too
        assert ab.mi == pytest.approx(ba.mi, abs=1e-9)
        assert (ab.si, ab.sx, ab.null_shared) == (ba.si, ba.sx, ba.null_shared)
        # disjoint-support closed form
        disjoint_b = TokenCounts({f"x_{t}": c for t, c in b.counts.items()})
        w_a = a.total / (a.total + disjoint_b.total)
        binary = 0.0
        for w in (w_a, 1.0 - w_a):
            if 0.0 < w < 1.0:
                binary -= w * math.log2(w)
        h_pool = info_record(a, disjoint_b).h_pool
        assert abs(h_pool - (w_a * h_a + (1 - w_a) * h_b + binary)) <= 1e-9
    assert time.perf_counter() - start < 30.0


def test_criterion_5_transport_oracle():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    problems, optima = [], []
    for _ in range(500):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.integers(1, 10, size=n).astype(float)
        b = rng.integers(1, 10, size=m).astype(float)
        cost = rng.random((n, m)) * 3.0
        a_eq = []
        for i in range(n):
            row = np.zeros((n, m))
            row[i, :] = 1.0
            a_eq.append(row.ravel())
        for j in range(m):
            row = np.zeros((n, m))
            row[:, j] = 1.0
            a_eq.append(row.ravel())
        b_eq = np.concatenate([a / a.sum(), b / b.sum()])
        lp = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=b_eq, method="highs")
        assert lp.success
        problems.append((a, b, cost))
        optima.append(lp.fun)
    for exact, optimum in zip(exact_transport(problems), optima):
        assert exact == pytest.approx(optimum, abs=1e-6)
    # the relaxed score never exceeds the exact optimum
    problems = []
    for _ in range(10_000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.integers(1, 8, size=n).astype(float)
        b = rng.integers(1, 8, size=m).astype(float)
        cost = rng.random((n, m)) * 2.0
        problems.append((a, b, cost))
    for exact, (a, b, cost) in zip(exact_transport(problems), problems):
        assert exact >= relaxed_wmd(a, b, cost) - 1e-9


def brute_force_auc(labels, scores):
    pos = [s for l, s in zip(labels, scores) if l]
    neg = [s for l, s in zip(labels, scores) if not l]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_criterion_6_roc_oracle():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.random(n) < 0.5
        labels[0], labels[1] = True, False
        scores = rng.integers(0, 8, size=n).astype(float)
        assert roc_auc(tie_groups(labels, scores)) == pytest.approx(
            brute_force_auc(labels, scores), abs=1e-12
        )
    n = 10_000
    labels = np.arange(n) % 2 == 0
    scores = rng.random(n)
    assert roc_auc(tie_groups(labels, scores)) == pytest.approx(0.5, abs=0.05)


def test_criterion_7_synthetic_end_to_end(tmp_path):
    start = time.perf_counter()
    tb = generate_synthetic(seed=3, n_src=30, n_tgt=30, overlap=0.9)
    manifest = write_testbed(tb, tmp_path / "tb")
    cfg = RunConfig(
        manifests=[str(manifest)], vectorizer="skipgram",
        dim=16, epochs=20, seed=3, out_dir=str(tmp_path / "out"),
    )
    result = analyze_testbed(load_testbed(manifest), cfg)
    scores = result.evaluation["scores"]
    assert scores["mi"]["roc_auc"] >= 0.9
    assert scores["wmd_sim"]["roc_auc"] >= 0.9
    # zero overlap: every planted link has a null shared vector and si = 0
    tb0 = generate_synthetic(seed=3, n_src=10, n_tgt=10, overlap=0.0)
    manifest0 = write_testbed(tb0, tmp_path / "tb0")
    cfg0 = RunConfig(
        manifests=[str(manifest0)], vectorizer="none", out_dir=str(tmp_path / "o0")
    )
    result0 = analyze_testbed(load_testbed(manifest0), cfg0)
    records0 = result0.records
    links = records0["is_link"]
    assert links.any()
    assert records0["null_shared"][links].all()
    assert (records0["si"][links] == 0.0).all()
    assert time.perf_counter() - start < 120.0


def test_criterion_8_determinism(tmp_path):
    tb = generate_synthetic(seed=5, n_src=6, n_tgt=6, overlap=0.7)
    manifest = write_testbed(tb, tmp_path / "tb")
    trees = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        run_analysis(RunConfig(
            manifests=[str(manifest)], vectorizer="skipgram",
            dim=8, epochs=3, seed=2, out_dir=str(out),
        ))
        tree = {
            p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }
        trees.append(tree)
    assert list(trees[0]) == list(trees[1])
    for rel, blob in trees[0].items():
        assert blob == trees[1][rel], str(rel)


def test_criterion_9_report_shape(tmp_path):
    tb = generate_synthetic(seed=8, n_src=5, n_tgt=5, overlap=0.8)
    manifest = write_testbed(tb, tmp_path / "tb")
    out = tmp_path / "out"
    run_analysis(RunConfig(
        manifests=[str(manifest)], vectorizer="skipgram",
        dim=8, epochs=2, seed=1, out_dir=str(out),
    ))
    report = out / "reports" / tb.name
    records_header = (report / "records.csv").read_text().splitlines()[0]
    assert records_header.split(",") == list(RECORD_COLUMNS)
    info_header = (report / "information.csv").read_text().splitlines()[0]
    for col in ("h_x", "h_y", "ci_noise", "ci_loss", "mi", "si", "sx"):
        assert col in info_header.split(",")
    by_links_lines = (report / "by_links.csv").read_text().splitlines()
    listed_metrics = {line.split(",")[0] for line in by_links_lines[1:]}
    assert set(BY_LINKS_METRICS) <= listed_metrics
    corr_header = (report / "correlations.csv").read_text().splitlines()[0]
    assert {"semantic_metric", "info_metric", "pearson_r"} <= set(corr_header.split(","))


def test_criterion_10_public_testbed_direction():
    manifest = os.environ.get("TRACEX_COEST_MANIFEST")
    if not manifest:
        pytest.skip("set TRACEX_COEST_MANIFEST to a downloaded testbed manifest")
    tb = load_testbed(manifest)
    cfg = RunConfig(manifests=[manifest], vectorizer="none")
    result = analyze_testbed(tb, cfg)
    d1 = result.records["d1"][~np.isnan(result.records["d1"])]
    assert len(d1)
    assert float(np.mean(d1)) > 0.0
