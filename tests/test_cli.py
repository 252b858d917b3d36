import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tracex.cli as cli
from tracex.cli import main
from tracex.corpus import ConfigError, CorpusError
from tracex.embeddings import EmbeddingError, EmbeddingMatrix
from tracex.pipeline import NumericError
from tracex.report import ReportError
from tracex.tokenization import BpeModelError, BpeTrainingError, conventional_tokenize


@pytest.fixture()
def synth_manifest(tmp_path):
    assert main([
        "synth", "--seed", "5", "--sources", "4", "--targets", "4",
        "--overlap", "0.8", "--out", str(tmp_path / "tb"),
    ]) == 0
    return tmp_path / "tb" / "manifest.json"


def test_validate_ok(synth_manifest, capsys):
    assert main(["validate", str(synth_manifest), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all"] == 16
    assert doc["links"] == 4


def test_validate_dangling_id_exit_2(tmp_path, synth_manifest, capsys):
    oracle = synth_manifest.parent / "oracle.txt"
    oracle.write_text(oracle.read_text() + "SRC000 GHOST9\n")
    assert main(["validate", str(synth_manifest)]) == 2
    assert "GHOST9" in capsys.readouterr().err


def test_analyze_writes_report_tree(synth_manifest, tmp_path):
    out = tmp_path / "out"
    assert main([
        "analyze", "--manifest", str(synth_manifest), "--vectorizer", "skipgram",
        "--dim", "8", "--epochs", "2", "--seed", "1", "--out", str(out),
    ]) == 0
    report_dir = out / "reports" / "synthetic-5"
    assert all(path.is_file() for path in report_dir.iterdir())
    assert {path.name for path in report_dir.iterdir()} == {
        "records.csv", "records.jsonl", "information.csv", "by_links.csv",
        "correlations.csv", "cases.jsonl", "scatter_loss.svg",
        "scatter_noise.svg", "evaluation.json",
    }
    assert (out / "run.json").is_file()
    meta = json.loads((out / "run.json").read_text())
    assert meta["config"]["seed"] == 1
    assert not {"threads", "window", "negatives", "min_count"} & set(meta["config"])
    assert meta["testbeds"]["synthetic-5"]["all"] == 16


@pytest.mark.parametrize("vectorizer, n_losses", [("skipgram", 3), ("pvdbow", 3), ("none", 0)])
def test_run_json_records_epoch_losses(synth_manifest, tmp_path, vectorizer, n_losses):
    out = tmp_path / "out"
    assert main([
        "analyze", "--manifest", str(synth_manifest), "--vectorizer", vectorizer,
        "--dim", "4", "--epochs", "3", "--seed", "2", "--out", str(out),
    ]) == 0
    losses = json.loads((out / "run.json").read_text())["testbeds"]["synthetic-5"]["epoch_losses"]
    assert len(losses) == n_losses
    assert all(np.isfinite(loss) and loss > 0 for loss in losses)


def test_run_json_counts_wmd_pairs(tmp_path):
    """run.json's wmd_pairs counts the pairs solved exactly, the pairs given
    the relaxed bound, the solver batches, and the solver's augmenting paths
    and lockstep search steps; a rerun writes the same bytes."""
    words = [a + b + c for a in "abcdefg" for b in "abcdefg" for c in "abcdefg"][:300]
    tb = tmp_path / "tb"
    for sub, files in (("src", {"big": " ".join(words), "small": "aaa aab"}),
                       ("tgt", {"big": " ".join(words), "tiny": "aac"})):
        (tb / sub).mkdir(parents=True)
        for name, text in files.items():
            (tb / sub / f"{name}.txt").write_text(text)
    (tb / "oracle.txt").write_text("big big\nsmall tiny\n")
    (tb / "manifest.json").write_text(json.dumps({
        "name": "bags", "source_dir": "src", "target_dir": "tgt", "oracle_file": "oracle.txt",
    }))
    vectors = np.random.default_rng(4).normal(size=(len(words), 2))
    EmbeddingMatrix(vocab=words, vectors=vectors).save(tmp_path / "vecs.txt")
    runs = []
    for name, args in (("a", ["--embeddings", str(tmp_path / "vecs.txt")]),
                       ("b", ["--embeddings", str(tmp_path / "vecs.txt")]),
                       ("none", ["--vectorizer", "none"])):
        out = tmp_path / name
        assert main(["analyze", "--manifest", str(tb / "manifest.json"), "--out", str(out), *args]) == 0
        runs.append((out / "run.json").read_bytes())
    # big x big has 300 x 300 cells, past the exact limit; the three exact
    # pairs (2x1, 2x300 and 300x1 cells) pad past one batch's cells together.
    # The node-by-node search took 87,727 steps for the same 602 paths.
    assert json.loads(runs[0])["testbeds"]["bags"]["wmd_pairs"] == {
        "exact": 3, "relaxed": 1, "batches": 2, "augmentations": 602, "steps": 42000}
    assert runs[0] == runs[1]
    assert json.loads(runs[2])["testbeds"]["bags"]["wmd_pairs"] == {
        "exact": 0, "relaxed": 0, "batches": 0, "augmentations": 0, "steps": 0}


def test_analyze_vectorizer_none(synth_manifest, tmp_path):
    out = tmp_path / "o2"
    assert main([
        "analyze", "--manifest", str(synth_manifest), "--vectorizer", "none",
        "--out", str(out),
    ]) == 0
    evaluation = json.loads(
        (out / "reports" / "synthetic-5" / "evaluation.json").read_text()
    )
    assert evaluation["scores"]["wmd_sim"]["roc_auc"] is None
    assert evaluation["scores"]["mi"]["roc_auc"] is not None


def test_analyze_vectorizer_none_is_silent(synth_manifest, tmp_path, capsys):
    capsys.readouterr()
    assert main([
        "analyze", "--manifest", str(synth_manifest), "--vectorizer", "none",
        "--out", str(tmp_path / "quiet"),
    ]) == 0
    assert capsys.readouterr().err == ""


def test_only_link_from_empty_source_skips_orphans(tmp_path, capsys):
    tb = tmp_path / "tb"
    for sub, files in (("src", {"A": "", "B": "alpha beta"}),
                       ("tgt", {"X": "alpha", "Y": "beta gamma"})):
        (tb / sub).mkdir(parents=True)
        for name, text in files.items():
            (tb / sub / f"{name}.txt").write_text(text)
    (tb / "oracle.txt").write_text("A X\n")
    (tb / "manifest.json").write_text(json.dumps({
        "name": "empty-link", "source_dir": "src", "target_dir": "tgt",
        "oracle_file": "oracle.txt",
    }))
    out = tmp_path / "out"
    assert main([
        "analyze", "--manifest", str(tb / "manifest.json"), "--vectorizer", "none",
        "--out", str(out),
    ]) == 0
    lines = (out / "reports" / "empty-link" / "cases.jsonl").read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in lines}
    assert kinds == {"max_loss", "min_loss", "max_noise", "min_noise"}
    # `cases` on the same records skips orphan detection too
    capsys.readouterr()
    assert main(["cases", str(out / "reports" / "empty-link" / "records.jsonl"), "--json"]) == 0
    kinds = {json.loads(line)["kind"] for line in capsys.readouterr().out.splitlines()}
    assert kinds == {"max_loss", "min_loss"}


def test_records_independent_of_string_hashing(synth_manifest, tmp_path):
    blobs = set()
    for hash_seed in ("1", "2", "3"):
        out = tmp_path / f"h{hash_seed}"
        subprocess.run(
            [sys.executable, "-m", "tracex.cli", "analyze", "--manifest", str(synth_manifest),
             "--vectorizer", "none", "--out", str(out)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed), check=True, timeout=60,
        )
        blobs.add((out / "reports" / "synthetic-5" / "records.jsonl").read_bytes())
    assert len(blobs) == 1


def test_analyze_bpe_preproc(synth_manifest, tmp_path):
    out = tmp_path / "o3"
    assert main([
        "analyze", "--manifest", str(synth_manifest), "--preproc", "bpe8k",
        "--vectorizer", "none", "--out", str(out),
    ]) == 0


def test_analyze_missing_manifest_exit_2(tmp_path):
    assert main([
        "analyze", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o"),
    ]) == 2


def test_train_bpe_and_reuse(tmp_path, synth_manifest):
    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text("lower lower lowest low low low\n")
    model_path = tmp_path / "bpe.json"
    assert main([
        "train-bpe", str(corpus_file), "--vocab-size", "12", "--out", str(model_path),
    ]) == 0
    doc = json.loads(model_path.read_text())
    assert doc["vocab_size"] == 12
    assert doc["merges"]


def test_train_bpe_early_stop_warning(tmp_path, capsys):
    corpus_file = tmp_path / "tiny.txt"
    corpus_file.write_text("ab cd\n")
    assert main([
        "train-bpe", str(corpus_file), "--vocab-size", "8000",
        "--out", str(tmp_path / "m.json"),
    ]) == 0
    assert "warning" in capsys.readouterr().err


def test_train_embeddings_and_load(tmp_path, synth_manifest):
    corpus_file = tmp_path / "corpus.txt"
    corpus_file.write_text("alpha beta alpha beta gamma alpha\n")
    vec_path = tmp_path / "vecs.txt"
    assert main([
        "train-embeddings", str(corpus_file), "--dim", "4", "--epochs", "2",
        "--out", str(vec_path),
    ]) == 0
    out = tmp_path / "o4"
    assert main([
        "analyze", "--manifest", str(synth_manifest), "--embeddings", str(vec_path),
        "--out", str(out),
    ]) == 0  # all pairs OOV against this vocab: undefined, not fatal
    evaluation = json.loads(
        (out / "reports" / "synthetic-5" / "evaluation.json").read_text()
    )
    assert evaluation["scores"]["wmd_sim"]["n_defined"] == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["testbeds"]["synthetic-5"]["epoch_losses"] == []  # loaded, not trained


def test_cases_subcommand(synth_manifest, tmp_path, capsys):
    out = tmp_path / "o5"
    main(["analyze", "--manifest", str(synth_manifest), "--vectorizer", "none",
          "--out", str(out)])
    capsys.readouterr()
    records = out / "reports" / "synthetic-5" / "records.jsonl"
    assert main(["cases", str(records), "--k", "1", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    kinds = {json.loads(l)["kind"] for l in lines}
    assert "max_loss" in kinds and "min_loss" in kinds


def test_synth_deterministic_bytes(tmp_path):
    for d in ("t1", "t2"):
        main(["synth", "--seed", "9", "--sources", "3", "--targets", "3",
              "--overlap", "0.5", "--out", str(tmp_path / d)])
    f1 = sorted((tmp_path / "t1").rglob("*"))
    f2 = sorted((tmp_path / "t2").rglob("*"))
    assert [p.name for p in f1] == [p.name for p in f2]
    for p1, p2 in zip(f1, f2):
        if p1.is_file():
            assert p1.read_bytes() == p2.read_bytes()


def test_synth_refuses_a_non_empty_out(tmp_path, capsys):
    out = tmp_path / "tb"
    assert main(["synth", "--seed", "1", "--sources", "6", "--targets", "6", "--out", str(out)]) == 0
    files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    # seed 1's SRC003-TGT005 would be loaded beside seed 2's 3x3 testbed
    assert main(["synth", "--seed", "2", "--sources", "3", "--targets", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files
    (tmp_path / "empty").mkdir()
    assert main(["synth", "--seed", "2", "--sources", "3", "--targets", "3",
                 "--out", str(tmp_path / "empty")]) == 0


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["analyze"],
    ["analyze", "--manifest", "m.json", "--vectorizer", "foo"],
    ["analyze", "--manifest", "m.json", "--dim", "abc"],
    ["cases", "records.jsonl", "--metric", "mi"],
])
def test_usage_errors_are_config_errors(capsys, argv):
    assert main(argv) == 1  # argparse alone exits 2, the data-error code
    assert capsys.readouterr().err.startswith("config error: tracex")


def _raising(exc: BaseException):
    def handler(args):
        raise exc
    return handler


# Every exception type main maps, with its exit code and the start of its one
# stderr line; None is an argparse usage error (no records path). The mapped
# types are ValueErrors but for NumericError, a RuntimeError, so one error can
# be two of them: the clauses' order decides, data and numeric before config.
EXIT_CONTRACT = [
    (CorpusError, 2, "error: "),
    (BpeModelError, 2, "error: "),
    (BpeTrainingError, 2, "error: "),
    (EmbeddingError, 2, "error: "),
    (ReportError, 2, "error: "),
    (NumericError, 3, "numeric failure: "),
    (ConfigError, 1, "config error: "),
    (MemoryError, 4, "out of memory: "),
    (type("EmbeddingConfigError", (EmbeddingError, ConfigError), {}), 2, "error: "),
    (type("NumericConfigError", (NumericError, ConfigError), {}), 3, "numeric failure: "),
    (None, 1, "config error: tracex cases: "),
]


@pytest.mark.parametrize("raised, code, prefix", EXIT_CONTRACT,
                         ids=[e.__name__ if e else "usage" for e, _, _ in EXIT_CONTRACT])
def test_each_mapped_exception_has_its_exit_code(monkeypatch, capsys, raised, code, prefix):
    monkeypatch.setattr(cli, "cmd_cases", _raising(raised("the reason") if raised else None))
    assert main(["cases"] if raised is None else ["cases", "records.jsonl"]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
    assert raised is None or err == f"{prefix}the reason\n"


@pytest.mark.parametrize("raised", [ValueError, RuntimeError, KeyError])
def test_unmapped_exceptions_propagate(monkeypatch, raised):
    """The mapped errors are ValueErrors (NumericError a RuntimeError), so a
    clause that caught their base class would map these too, to some code."""
    monkeypatch.setattr(cli, "cmd_cases", _raising(raised("a bug")))
    with pytest.raises(raised, match="a bug"):
        main(["cases", "records.jsonl"])


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--manifest" in capsys.readouterr().out


def run_cli(*argv):
    """tracex in a child interpreter, so that a traceback would show on stderr."""
    return subprocess.run(
        [sys.executable, "-m", "tracex.cli", *map(str, argv)],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("argv", [
    ["analyze", "--orphan-quantile", "1.5"],
    ["cases", "--orphan-quantile", "2"],
    ["cases", "--k", "0"],
    ["analyze", "--dim", "0"],
    ["analyze", "--epochs", "0"],
    ["analyze", "--vectorizer", "pvdbow", "--dim", "-1"],
    ["analyze", "--vectorizer", "pvdbow", "--embeddings", "absent.txt"],
    ["analyze", "--vectorizer", "none", "--embeddings", "absent.txt"],
    ["analyze", "--bpe-model", "absent.json"],
    ["analyze", "--preproc", "conventional", "--bpe-model", "absent.json"],
    ["train-embeddings", "--dim", "0"],
    ["train-embeddings", "--epochs", "0"],
    ["train-bpe", "--vocab-size", "0"],
])
def test_orphan_options_are_config_errors_before_any_work(synth_manifest, tmp_path, capsys, argv):
    out = tmp_path / "out"
    command, *options = argv
    if command == "analyze":
        target = ["--manifest", str(synth_manifest), "--out", str(out)]
    elif command in ("train-embeddings", "train-bpe"):  # checked before the corpus is read
        out.mkdir()  # a writable --out, so that only the option check can exit 1
        target = [str(tmp_path / "absent.txt"), "--out", str(out / "vecs.txt")]
    else:
        target = [str(tmp_path / "absent.jsonl")]  # checked before the file is read
    assert main([command, *target, *options]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(out.iterdir()) if command in ("train-embeddings", "train-bpe") else not out.exists()


def _malformed_input(case, manifest, tmp_path):
    """Write one malformed input next to a good testbed; return the tracex argv."""
    analyze = ["analyze", "--manifest", manifest, "--vectorizer", "none", "--out", tmp_path / "out"]
    if case == "manifest-not-utf8":
        manifest.write_bytes(b'{"name": "\xff"}')
    elif case == "oracle-not-utf8":
        (manifest.parent / "oracle.txt").write_bytes(b"SRC000 TGT\xff\n")
    elif case == "embeddings-not-a-float":
        (tmp_path / "vecs.txt").write_text("1 2\nfoo 1.0 abc\n")
        return ["analyze", "--manifest", manifest, "--embeddings", tmp_path / "vecs.txt",
                "--out", tmp_path / "out"]
    elif case == "manifest-name-not-a-string":
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "name": 123}))
    elif case.startswith("bpe-model"):
        model = tmp_path / "bpe.json"
        if case == "bpe-model-not-a-model":
            model.write_text('{"merges": 5}')
        return [*analyze, "--preproc", "bpe8k", "--bpe-model", model]
    else:
        records = tmp_path / "records.jsonl"
        records.write_text('{"source_id":"a"}\n' if case == "records-missing-keys" else "not json\n")
        return ["cases", records]
    return analyze


@pytest.mark.parametrize("case", [
    "manifest-not-utf8", "oracle-not-utf8", "embeddings-not-a-float",
    "manifest-name-not-a-string", "records-missing-keys", "records-not-json",
    "bpe-model-missing", "bpe-model-not-a-model",
])
def test_malformed_input_files_are_data_errors(synth_manifest, tmp_path, case):
    proc = run_cli(*_malformed_input(case, synth_manifest, tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("unreadable, raised", [
    ("manifest.json", PermissionError(13, "Permission denied")),
    ("sources/SRC001.txt", IsADirectoryError(21, "Is a directory")),
    ("oracle.txt", OSError(5, "Input/output error")),
    ("sources", PermissionError(13, "Permission denied")),
    ("corpus.txt", PermissionError(13, "Permission denied")),
])
def test_unreadable_input_files_exit_2(synth_manifest, monkeypatch, capsys, unreadable, raised):
    """A manifest, an artifact, the oracle, an artifact directory or a corpus
    file that cannot be read ends in one `error: ` line naming it, exit 2."""
    tb = synth_manifest.parent
    (tb / "corpus.txt").write_text("lower lower lowest low low low\n")
    bad = tb / unreadable

    def refusing(original):
        def read(self, *args, **kwargs):
            if self == bad:
                raise raised
            return original(self, *args, **kwargs)
        return read

    monkeypatch.setattr(Path, "read_text", refusing(Path.read_text))
    monkeypatch.setattr(Path, "iterdir", refusing(Path.iterdir))
    argv = (["train-bpe", str(bad), "--vocab-size", "12", "--out", str(tb / "bpe.json")]
            if unreadable == "corpus.txt" else ["validate", str(synth_manifest)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and str(bad) in err and err.count("\n") == 1, err


def test_duplicate_testbed_names_exit_2_before_any_report(tmp_path, capsys):
    manifests = []
    for d in ("tb1", "tb2"):
        assert main(["synth", "--seed", "5", "--sources", "2", "--targets", "2",
                     "--out", str(tmp_path / d)]) == 0
        manifests += ["--manifest", str(tmp_path / d / "manifest.json")]
    out = tmp_path / "out"
    assert main(["analyze", *manifests, "--vectorizer", "none", "--out", str(out)]) == 2
    assert "synthetic-5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b"])
def test_unsafe_testbed_names_exit_2(synth_manifest, tmp_path, name):
    synth_manifest.write_text(json.dumps({**json.loads(synth_manifest.read_text()), "name": name}))
    out = tmp_path / "deep" / "out"
    assert main(["analyze", "--manifest", str(synth_manifest), "--vectorizer", "none",
                 "--out", str(out)]) == 2
    assert not (tmp_path / "deep").exists()


@pytest.mark.parametrize("command", ["analyze", "synth", "train-bpe", "train-embeddings"])
def test_uncreatable_output_is_config_error(synth_manifest, tmp_path, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    corpus = synth_manifest.parent / "sources" / "SRC000.txt"
    argv = {
        "analyze": ["--manifest", synth_manifest, "--vectorizer", "none", "--out", blocker],
        "synth": ["--out", blocker / "tb"],
        "train-bpe": [corpus, "--vocab-size", "40", "--out", blocker / "bpe.json"],
        "train-embeddings": [corpus, "--dim", "4", "--epochs", "1", "--out", blocker / "vecs.txt"],
    }[command]
    proc = run_cli(command, *argv)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_blocked_report_directory_is_config_error_before_analysis(synth_manifest, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "reports").write_text("a file, not a directory\n")
    proc = run_cli("analyze", "--manifest", synth_manifest, "--vectorizer", "none", "--out", out)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("blocked", ["run.json", "reports/synthetic-5/records.csv"])
def test_unwritable_report_file_is_config_error(synth_manifest, tmp_path, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where analyze writes a file
    proc = run_cli("analyze", "--manifest", synth_manifest, "--vectorizer", "none", "--out", out)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["train-bpe", "train-embeddings"])
def test_unwritable_output_fails_before_training(synth_manifest, tmp_path, monkeypatch, capsys,
                                                 command):
    def never(*args):
        raise AssertionError("trained before checking --out")

    monkeypatch.setattr("tracex.cli.train_bpe", never)
    monkeypatch.setattr("tracex.cli.train_skipgram", never)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    corpus = synth_manifest.parent / "sources" / "SRC000.txt"
    options = ["--vocab-size", "40"] if command == "train-bpe" else []
    assert main([command, str(corpus), *options, "--out", str(blocker / "model")]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", ["train-bpe", "train-embeddings"])
def test_failed_training_leaves_no_output(tmp_path, command):
    out = tmp_path / "model"
    options = ["--vocab-size", "40"] if command == "train-bpe" else []
    assert main([command, str(tmp_path / "absent.txt"), *options, "--out", str(out)]) == 2
    assert not out.exists()


def test_bpe_vocab_size_below_one_is_a_config_error(tmp_path, capsys):
    """A --vocab-size below 1 fails as configuration before --out is opened;
    one that does not exceed the corpus's characters fails as data."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("low lower lowest\n", encoding="utf-8")
    out = tmp_path / "bpe.json"
    assert main(["train-bpe", str(corpus), "--vocab-size", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()
    assert main(["train-bpe", str(corpus), "--vocab-size", "1", "--out", str(out)]) == 2
    assert "base charset size" in capsys.readouterr().err
    assert not out.exists()


def test_program_fault_is_not_a_config_error(synth_manifest, tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise ValueError("cannot reshape array of size 0 into shape (0)")

    monkeypatch.setattr("tracex.pipeline.info_columns", broken)
    with pytest.raises(ValueError, match="reshape"):
        main(["analyze", "--manifest", str(synth_manifest), "--vectorizer", "none",
              "--out", str(tmp_path / "out")])
    assert "config error:" not in capsys.readouterr().err


def test_overflowing_vectors_are_numeric_errors(synth_manifest, tmp_path):
    tokens = sorted({t for p in synth_manifest.parent.rglob("*.txt")
                     for t in conventional_tokenize(p.read_text())})
    signs = np.random.default_rng(4).choice([-1e200, 1e200], size=(len(tokens), 4))
    vectors = tmp_path / "vecs.txt"
    EmbeddingMatrix(vocab=tokens, vectors=signs).save(vectors)
    proc = run_cli("analyze", "--manifest", synth_manifest, "--embeddings", vectors,
                   "--out", tmp_path / "out")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numeric failure:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_out_of_memory_exits_4(synth_manifest, tmp_path):
    """An allocation past the address-space cap ends in one line and exit 4,
    not a traceback: a 400-million-wide embedding, in a child interpreter
    under the benchmark harness's 1.5 GiB RLIMIT_AS."""
    cap = 3 << 29
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "from tracex.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "analyze", "--manifest", str(synth_manifest),
         "--dim", "400000000", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("out of memory: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_artifact_id_with_carriage_return_exit_2(synth_manifest, capsys):
    (synth_manifest.parent / "targets" / "TGT\r009.txt").write_text("alpha beta")
    assert main(["validate", str(synth_manifest)]) == 2
    assert "carriage return" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The files of a good 3x3 testbed run with loaded vectors and a BPE model."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--seed", "2", "--sources", "3", "--targets", "3",
                 "--overlap", "0.7", "--out", str(root / "tb")]) == 0
    texts = [p.read_text() for p in sorted(root.rglob("*.txt")) if p.name != "oracle.txt"]
    (root / "corpus.txt").write_text("\n".join(texts))
    assert main(["train-bpe", str(root / "corpus.txt"), "--vocab-size", "60",
                 "--out", str(root / "bpe.json")]) == 0
    tokens = sorted({t for text in texts for t in conventional_tokenize(text)})
    vectors = np.random.default_rng(0).normal(size=(len(tokens), 3))
    EmbeddingMatrix(vocab=tokens, vectors=vectors).save(root / "vecs.txt")
    return {name: (root / name).read_bytes()
            for name in ("tb/manifest.json", "tb/oracle.txt", "vecs.txt", "bpe.json")} | {
        f"tb/{p.parent.name}/{p.name}": p.read_bytes()
        for p in (root / "tb").glob("*/*.txt")}


FUZZ_BYTES = st.one_of(
    st.binary(max_size=8),
    st.sampled_from([b"\xff", b"\n", b"\r", b" ", b'"', b"#", b"0", b"-1", b"nan", b"1e400",
                     b"1e200", b"{}", b"[]", b"null", b"\\u0000"]),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    target=st.sampled_from(["tb/manifest.json", "tb/oracle.txt", "vecs.txt", "bpe.json"]),
    edits=st.lists(st.tuples(st.floats(0, 1), st.integers(0, 12), FUZZ_BYTES),
                   min_size=1, max_size=4),
)
def test_mangled_inputs_never_escape_main(fuzz_inputs, target, edits):
    """Each edit deletes up to 12 bytes at a relative position and inserts
    its bytes there; analyze must end in a documented exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in fuzz_inputs.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        data = fuzz_inputs[target]
        for where, cut, insert in edits:
            at = int(where * len(data))
            data = data[:at] + insert + data[at + cut:]
        (root / target).write_bytes(data)
        argv = ["analyze", "--manifest", str(root / "tb/manifest.json"), "--out", str(root / "out")]
        if target == "bpe.json":
            argv += ["--preproc", "bpe8k", "--bpe-model", str(root / "bpe.json"),
                     "--vectorizer", "none"]
        else:
            argv += ["--embeddings", str(root / "vecs.txt")]
        assert main(argv) in (0, 1, 2, 3)
