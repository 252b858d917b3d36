"""Tests of the benchmark's own code: input generators, output checks, span
metrics and child isolation. Run with `PYTHONPATH=src python -m pytest perfbench`."""

import json
import time
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from tracex.cli import main as tracex_main


def test_benchmark_json_matches_the_benchmark():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E_REPORTED)
    layer = spans.layer_metrics({"spans": [], "counts": {}, "epoch_losses": {}})
    emitted = {k: u for k, (_, u) in layer.items() if k not in run.LAYER_PRINT_ONLY}
    emitted |= run.LAYER_EXTRAS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == emitted


def tree(path: Path) -> dict:
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def test_zipf_testbed_deterministic_per_seed():
    kwargs = dict(n_src=4, n_tgt=5, background=50, exponent=1.1, draws=30, topic=6, shared=4)
    assert workloads.zipf_testbed(7, **kwargs) == workloads.zipf_testbed(7, **kwargs)
    assert workloads.zipf_testbed(7, **kwargs) != workloads.zipf_testbed(8, **kwargs)
    sources, targets, links = workloads.zipf_testbed(7, **kwargs)
    assert links == {(f"S{i:03d}", f"T{i:03d}") for i in range(4)}
    # every pair shares background words
    for s in sources.values():
        for t in targets.values():
            assert set(s.split()) & set(t.split())


@pytest.mark.parametrize("name", ["info-large", "wmd-zipf", "bpe-pvdbow"])
def test_workload_inputs_deterministic_per_seed(tmp_path, name):
    build = workloads.WORKLOADS[name].build
    a = build(5, tmp_path / "a")
    b = build(5, tmp_path / "b")
    c = build(6, tmp_path / "c")
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "a") != tree(tmp_path / "c")
    assert a.texts == b.texts and a.links == b.links and a.n_pairs == b.n_pairs


def small_run(tmp_path: Path):
    sources, targets, links = workloads.zipf_testbed(
        3, n_src=4, n_tgt=4, background=40, exponent=1.1, draws=25, topic=5, shared=3)
    manifest = workloads.write_manifest_tree("small", sources, targets, links, tmp_path / "tb")
    out = tmp_path / "out"
    assert tracex_main(["analyze", "--manifest", str(manifest), "--out", str(out),
                        "--vectorizer", "none"]) == 0
    counts = {f"source:{k}": checks.plain_counts(v) for k, v in sources.items()}
    counts.update({f"target:{k}": checks.plain_counts(v) for k, v in targets.items()})
    return out, counts, links


def test_checks_accept_tracex_output(tmp_path):
    out, counts, links = small_run(tmp_path)
    assert checks.check_tree(out, "small") == []
    rows = checks.load_records(out / "reports" / "small" / "records.jsonl")
    assert checks.check_identities(rows) == []
    assert checks.check_info(rows, checks.reference_info(counts, links)) == []


def test_checks_reject_perturbed_records(tmp_path):
    out, counts, links = small_run(tmp_path)
    path = out / "reports" / "small" / "records.jsonl"
    digest = checks.records_digest(path)
    rows = checks.load_records(path)
    rows[5]["mi"] += 1e-6
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    perturbed = checks.load_records(path)
    assert checks.records_digest(path) != digest
    assert checks.check_identities(perturbed)
    assert checks.check_info(perturbed, checks.reference_info(counts, links))
    (out / "reports" / "small" / "cases.jsonl").unlink()
    assert checks.check_tree(out, "small") == ["report file missing or empty: cases.jsonl"]


def test_highs_wmd_matches_tracex():
    import numpy as np

    from tracex.embeddings import EmbeddingMatrix
    from tracex.semantics import wmd
    from tracex.tokenization import TokenCounts

    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(6)]
    vectors = {t: rng.normal(size=4) for t in vocab}
    a, b = Counter(w0=3, w1=1, w2=2), Counter(w2=1, w3=4, w4=1, w5=2)
    matrix = EmbeddingMatrix(vocab, np.stack([vectors[t] for t in vocab]))
    exact, relaxed = wmd(TokenCounts(dict(a)), TokenCounts(dict(b)), matrix)
    assert not relaxed
    assert checks.highs_wmd(a, b, vectors) == pytest.approx(exact, rel=checks.WMD_RTOL)


def test_layer_metrics_self_time_and_tail():
    trace = {
        "spans": [
            ["pipeline.main", 0.0, 10.0, -1, 0],
            ["semantics.wmd", 1.0, 5.0, 0, 0],
            ["transport.transport_cost", 1.5, 4.5, 1, 0],
            ["infotheory.info_record", 6.0, 7.0, 0, 0],
        ],
        "counts": {"transport.cells": 12},
        "epoch_losses": {},
    }
    m = spans.layer_metrics(trace)
    assert m["pipeline.self_s"][0] == pytest.approx(5.0)
    assert m["semantics.busy_s"][0] == pytest.approx(4.0)
    assert m["semantics.wmd.self_s"][0] == pytest.approx(1.0)
    assert m["transport.transport_cost.ns_per_cell"][0] == pytest.approx(3.0 / 12 * 1e9)
    assert m["embeddings.train_skipgram.busy_s"][0] == 0
    assert spans.tail_percentile(100) == 90.0
    assert spans.tail_percentile(900) == 95.0
    assert spans.tail_percentile(19) is None


def test_child_over_address_space_cap_fails(tmp_path):
    sources, targets, links = workloads.zipf_testbed(
        1, n_src=3, n_tgt=3, background=30, exponent=1.1, draws=20, topic=4, shared=2)
    manifest = workloads.write_manifest_tree("tiny", sources, targets, links, tmp_path / "tb")

    def spec(name):
        out = tmp_path / name / "out"
        argv = ["analyze", "--manifest", str(manifest), "--out", str(out), "--vectorizer", "none"]
        return {"argv": argv, "trace": False, "setup_only": False, "out": str(out)}

    fits = run.run_child(spec("fits"), tmp_path / "fits", deadline_s=60.0)
    assert fits.ok and fits.wall_s > 0 and fits.peak_mib > 0
    capped = run.run_child(spec("capped"), tmp_path / "capped", deadline_s=60.0,
                           cap_bytes=64 << 20)
    assert not capped.ok
    assert capped.status.startswith(("exit", "signal"))
    assert capped.last_stderr
    assert capped.wall_s is None


def test_child_past_deadline_is_killed(tmp_path):
    spec = {"argv": ["analyze"], "trace": False, "setup_only": False, "out": str(tmp_path)}
    start = time.monotonic()
    result = run.run_child(spec, tmp_path / "w", deadline_s=0.01)
    assert result.status == "timeout after 0s"
    assert time.monotonic() - start < 30.0
