import json
import re

import numpy as np
import pytest

from tracex.cli import main
from tracex.corpus import (
    Artifact,
    ConfigError,
    CorpusError,
    Testbed as CorpusTestbed,
    TraceLink,
    generate_synthetic,
    load_testbed,
    write_testbed,
)
from tracex.pipeline import RunConfig, analyze_testbed
from tracex.report import RECORD_COLUMNS, IdColumn
from tracex.tokenization import conventional_tokenize, count_tokens


def make_testbed(tmp_path, sources, targets, oracle_lines):
    (tmp_path / "src").mkdir()
    (tmp_path / "tgt").mkdir()
    for name, text in sources.items():
        (tmp_path / "src" / f"{name}.txt").write_text(text)
    for name, text in targets.items():
        (tmp_path / "tgt" / f"{name}.txt").write_text(text)
    (tmp_path / "oracle.txt").write_text("\n".join(oracle_lines) + "\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "name": "tiny", "link_type": "req2src", "language_tag": "en",
        "source_dir": "src", "target_dir": "tgt", "oracle_file": "oracle.txt",
    }))
    return manifest


def test_load_counts_reconcile(tmp_path):
    manifest = make_testbed(
        tmp_path,
        {"R1": "alpha beta", "R2": "gamma"},
        {"C1": "alpha", "C2": "beta", "C3": "delta"},
        ["R1 C1 C2", "# comment", "R2 C3"],
    )
    tb = load_testbed(manifest)
    assert tb.n_all == 6
    assert tb.n_links == 3
    assert tb.n_non_links == 3
    assert tb.n_links + tb.n_non_links == tb.n_all


def test_empty_oracle_no_links(tmp_path):
    manifest = make_testbed(
        tmp_path, {"A": "x", "B": "y"}, {"P": "x", "Q": "y", "R": "z"}, ["# none"]
    )
    tb = load_testbed(manifest)
    assert tb.n_all == 6
    assert tb.n_links == 0


def test_dangling_oracle_id_named(tmp_path):
    manifest = make_testbed(tmp_path, {"R1": "a"}, {"C1": "b"}, ["R1 UC99"])
    with pytest.raises(CorpusError, match="UC99"):
        load_testbed(manifest)


def test_hash_after_the_first_field_is_part_of_an_id(tmp_path, capsys):
    """Only a line whose first non-blank character is '#' is a comment."""
    manifest = make_testbed(tmp_path, {"R1": "a"}, {"C1": "b"}, ["  # indented comment", "R1 C1  # planted link"])
    detail = "oracle references unknown artifact ids: #, link, planted"
    with pytest.raises(CorpusError, match=f"^{re.escape(f'malformed manifest {manifest}: {detail}')}$"):
        load_testbed(manifest)
    assert main(["validate", str(manifest)]) == 2
    assert capsys.readouterr().err == f"error: malformed manifest {manifest}: {detail}\n"


def test_missing_manifest():
    with pytest.raises(CorpusError):
        load_testbed("/nonexistent/manifest.json")


def test_empty_artifacts_flagged_not_rejected(tmp_path, capsys):
    # C3 has text, but no token survives tokenization
    targets = {"C1": "", "C2": "more words", "C3": "a b c !"}
    manifest = make_testbed(tmp_path, {"R1": "words"}, targets, ["R1 C2"])
    assert len(load_testbed(manifest).targets) == 3
    assert main(["validate", str(manifest), "--json"]) == 0
    empty = {"sources": [], "targets": ["C1", "C3"]}
    assert json.loads(capsys.readouterr().out)["empty_artifacts"] == empty
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", str(manifest), "--vectorizer", "none", "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["testbeds"]["tiny"]["empty_artifacts"] == empty


def test_records_sorted_by_id_and_labeled():
    tb = CorpusTestbed(
        name="t",
        sources=[Artifact("b", "beta"), Artifact("a", "")],
        targets=[Artifact("y", "why"), Artifact("x", "ex")],
        links={TraceLink("a", "x")},
    )
    result = analyze_testbed(tb, RunConfig(manifests=[], vectorizer="none"))
    records = result.records
    src, tgt = records["source_id"], records["target_id"]
    assert (src.names, tgt.names) == (["a", "b"], ["x", "y"])
    rows = zip(src.codes.tolist(), tgt.codes.tolist(), records["is_link"].tolist())
    assert [(src.names[s], tgt.names[t], link) for s, t, link in rows] == [
        ("a", "x", True), ("a", "y", False), ("b", "x", False), ("b", "y", False),
    ]
    assert result.run["empty_artifacts"] == {"sources": ["a"], "targets": []}


@pytest.mark.parametrize("vectorizer", ["skipgram", "pvdbow"])
def test_records_do_not_depend_on_artifact_order(vectorizer):
    tb = generate_synthetic(4, 4, 5, 0.6)
    cfg = RunConfig(manifests=[], vectorizer=vectorizer, dim=4, epochs=2, seed=1)
    records = analyze_testbed(tb, cfg).records
    tb.sources.reverse()
    tb.targets.reverse()
    reversed_records = analyze_testbed(tb, cfg).records
    assert records.keys() == reversed_records.keys()
    for name, column in records.items():
        other = reversed_records[name]
        if isinstance(column, IdColumn):
            assert column.names == other.names, name
            column, other = column.codes, other.codes
        assert column.dtype == other.dtype and column.tobytes() == other.tobytes(), name


@pytest.mark.parametrize("vectorizer", ["skipgram", "none"])
def test_records_hold_no_per_pair_python_object(vectorizer):
    """Every records column is a NumPy array of fixed-size values, or an
    IdColumn whose codes are and whose names are one str per artifact."""
    tb = generate_synthetic(3, 5, 4, 0.6)
    records = analyze_testbed(tb, RunConfig(manifests=[], vectorizer=vectorizer, dim=4, epochs=1)).records
    assert set(records) == set(RECORD_COLUMNS)
    for name, column in records.items():
        if isinstance(column, IdColumn):
            artifacts = tb.sources if name == "source_id" else tb.targets
            assert column.names == sorted(a.id for a in artifacts), name
            assert column.codes.dtype == np.uint8, name
            column = column.codes
        assert isinstance(column, np.ndarray) and column.dtype != object, name
        assert column.shape == (20,), name


def test_empty_artifacts_in_id_order(tmp_path, capsys):
    # file-name order puts a-b.txt before a.txt; the id order puts a first
    sources = {"a-b": "", "a": "", "s": "words"}
    manifest = make_testbed(tmp_path, sources, {"t": "more words"}, ["s t"])
    assert [a.id for a in load_testbed(manifest).sources] == ["a", "a-b", "s"]
    assert main(["validate", str(manifest), "--json"]) == 0
    empty = {"sources": ["a", "a-b"], "targets": []}
    assert json.loads(capsys.readouterr().out)["empty_artifacts"] == empty
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", str(manifest), "--vectorizer", "none", "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["testbeds"]["tiny"]["empty_artifacts"] == empty


def test_empty_source_and_target_sharing_an_id_stay_apart(tmp_path, capsys):
    # one list of bare ids printed these two as two identical entries
    manifest = make_testbed(tmp_path, {"a-b": "", "s": "words"}, {"a-b": "! ?", "t": "more words"}, ["s t"])
    empty = {"sources": ["a-b"], "targets": ["a-b"]}
    assert main(["validate", str(manifest), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["empty_artifacts"] == empty
    assert main(["validate", str(manifest)]) == 0
    assert "2 empty artifacts" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["analyze", "--manifest", str(manifest), "--vectorizer", "none", "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["testbeds"]["tiny"]["empty_artifacts"] == empty


def test_synthetic_full_overlap_identical_multisets():
    tb = generate_synthetic(1, 1, 1, 1.0)
    src = count_tokens(conventional_tokenize(tb.sources[0].raw_text))
    tgt = count_tokens(conventional_tokenize(tb.targets[0].raw_text))
    assert src.counts == tgt.counts
    assert tb.n_links == 1


def test_synthetic_zero_overlap_disjoint():
    tb = generate_synthetic(2, 3, 3, 0.0)
    by_id = {a.id: a for a in tb.sources + tb.targets}
    for link in tb.links:
        src = set(conventional_tokenize(by_id[link.source_id].raw_text))
        tgt = set(conventional_tokenize(by_id[link.target_id].raw_text))
        assert not (src & tgt)


def test_synthetic_deterministic():
    assert generate_synthetic(7, 4, 5, 0.5) == generate_synthetic(7, 4, 5, 0.5)


def test_synthetic_overlap_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(0, 2, 2, 1.5)
    with pytest.raises(ConfigError):
        generate_synthetic(0, 0, 2, 0.5)


def test_write_testbed_round_trip(tmp_path):
    tb = generate_synthetic(3, 4, 4, 0.6)
    manifest = write_testbed(tb, tmp_path / "synth")
    loaded = load_testbed(manifest)
    assert loaded.n_all == tb.n_all
    assert loaded.n_links == tb.n_links
    assert {(l.source_id, l.target_id) for l in loaded.links} == {
        (l.source_id, l.target_id) for l in tb.links
    }
