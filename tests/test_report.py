import csv
import hashlib
import io
import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracex.cli import main
from tracex.corpus import ConfigError
from tracex.report import (
    BOOL_COLUMNS,
    BY_LINKS_METRICS,
    ID_COLUMNS,
    RECORD_BLOCK_ROWS,
    RECORD_COLUMNS,
    CaseListing,
    OrphanPolicy,
    ReportError,
    by_links_table,
    detect_orphans,
    extreme_cases,
    information_table,
    null_shared_census,
    read_records,
    scatter_svg,
    write_records,
)


def row(src, tgt, is_link, **overrides):
    """One pair's values; None marks an undefined metric."""
    base = {
        "source_id": src, "target_id": tgt, "is_link": is_link,
        "h_x": 2.0, "h_y": 3.0, "h_pool": 4.0, "mi": 1.0,
        "loss": 1.0, "noise": 2.0, "si": 0.5, "sx": 0.4,
        "d1": 1.0, "d2": 2.0, "d3": 0.0, "null_shared": False,
        "wmd": 1.0, "scm": 0.3, "cos": 0.2, "euc": 0.5,
        "wmd_sim": 0.5, "cos_sim": 0.83, "wmd_relaxed": False,
    }
    base.update(overrides)
    return base


def records(*rows, columns=None):
    """The records table (layout in tracex.report) of row() dicts, None as NaN."""
    return {
        c: [r[c] for r in rows] if c in ID_COLUMNS
        else np.array([r[c] for r in rows], dtype=bool if c in BOOL_COLUMNS else np.float64)
        for c in columns or row("", "", False)
    }


def test_information_table_identities():
    recs = records(
        row("a", "x", True, mi=2.0, loss=0.5, noise=1.0, h_x=2.5, h_y=3.0),
        row("a", "y", False, mi=1.0, loss=0.2, noise=2.0, h_x=1.2, h_y=3.0),
    )
    table = information_table(recs, "tb")
    # published-layout identity: mi + ci_noise = h_x, mi + ci_loss = h_y
    assert table["mi"] + table["ci_noise"] == pytest.approx(table["h_x"], abs=1e-9)
    assert table["mi"] + table["ci_loss"] == pytest.approx(table["h_y"], abs=1e-9)
    assert "[" in table["si"] and "[" in table["sx"]


def test_information_table_zero_loss_noise_for_identical_pairs():
    table = information_table(records(row("a", "x", True, loss=0.0, noise=0.0)), "tb")
    assert table["ci_noise"] == 0.0
    assert table["ci_loss"] == 0.0


def test_by_links_column_set():
    assert set(BY_LINKS_METRICS) == {
        "scm", "wmd_sim", "cos", "euc", "h_x", "h_y",
        "ci_noise", "ci_loss", "mi", "si", "sx",
    }
    seg = by_links_table(records(row("a", "x", True, si=2.0), row("a", "y", False, si=0.1)))
    assert seg["link"]["si"].mean > seg["non_link"]["si"].mean


def test_by_links_no_links_flagged():
    seg = by_links_table(records(row("a", "y", False)))
    assert all(v is None for v in seg["link"].values())


def test_extreme_cases_k1():
    recs = records(
        row("a", "x", True, loss=1.0),
        row("a", "y", False, loss=3.0),
        row("b", "x", False, loss=2.0),
        row("b", "y", False, loss=None),  # undefined: never listed
    )
    listings = extreme_cases(recs, "loss", k=1)
    kinds = {(c.kind, c.source_id, c.target_id) for c in listings}
    assert kinds == {("max_loss", "a", "y"), ("min_loss", "a", "x")}
    assert all(c.rank == 1 for c in listings)
    assert all(type(c.is_link) is bool and type(c.value) is float for c in listings)


def test_extreme_cases_tie_break_by_id():
    recs = records(row("b", "x", False), row("a", "x", False), row("a", "y", False))
    listings = extreme_cases(recs, "noise", k=3)
    maxima = [c for c in listings if c.kind == "max_noise"]
    assert [(c.source_id, c.target_id) for c in maxima] == [("a", "x"), ("a", "y"), ("b", "x")]


def _extreme_reference(recs, metric, k):
    """extreme_cases by full sorts: defined rows in id order, then stable sorts."""
    values = recs[metric].tolist()
    src, tgt = recs["source_id"], recs["target_id"]
    by_id = sorted((i for i, v in enumerate(values) if not math.isnan(v)), key=lambda i: (src[i], tgt[i]))
    ranked = {"max": sorted(by_id, key=lambda i: -values[i])[:k],
              "min": sorted(by_id, key=lambda i: values[i])[:k]}
    return [(f"{side}_{metric}", src[i], tgt[i], bool(recs["is_link"][i]), repr(values[i]), rank)
            for side in ("max", "min") for rank, i in enumerate(ranked[side], start=1)]


@given(st.data())
def test_extreme_cases_match_full_sorts(data):
    n = data.draw(st.integers(0, 14))
    pairs = st.tuples(st.sampled_from("abc"), st.sampled_from("xy"))  # duplicate pairs
    values = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, math.nan])  # ties and NaN
    rows = [row(s, t, link, loss=v, noise=w) for (s, t), link, v, w in data.draw(st.lists(
        st.tuples(pairs, st.booleans(), values, values), min_size=n, max_size=n))]
    recs = records(*rows)
    k = data.draw(st.integers(1, n + 3))
    for metric in ("loss", "noise"):
        got = [(c.kind, c.source_id, c.target_id, c.is_link, repr(c.value), c.rank)
               for c in extreme_cases(recs, metric, k)]
        assert got == _extreme_reference(recs, metric, k)


def test_detect_orphans_top_candidate_first():
    recs = records(
        row("a", "x", True, mi=1.0),
        row("a", "y", False, mi=5.0),
        row("b", "x", False, mi=0.1),
        row("b", "y", False, mi=None),
    )
    orphans = detect_orphans(recs, OrphanPolicy())
    assert orphans[0].source_id == "a" and orphans[0].target_id == "y"
    assert all(not c.is_link for c in orphans)


def test_detect_orphans_quantile_interpolation():
    links = [row("s", f"t{i}", True, mi=float(i)) for i in range(100)]
    non_link = row("s", "zz", False, mi=98.02)
    orphans = detect_orphans(records(*links, non_link), OrphanPolicy(quantile=0.99))
    # threshold = 99th percentile of 0..99 = 98.01 by linear interpolation
    assert [(c.source_id, c.target_id) for c in orphans] == [("s", "zz")]


def test_detect_orphans_requires_links():
    assert detect_orphans(records(row("a", "x", False)), OrphanPolicy()) == []
    assert detect_orphans(records(row("a", "x", True, mi=None)), OrphanPolicy()) == []


def test_orphan_policy_validation():
    # a configuration error (exit 1), not a data error (ReportError)
    for bad in ({"quantile": 1.0}, {"quantile": 0.0}, {"metric": "wmd"}):
        with pytest.raises(ConfigError):
            OrphanPolicy(**bad)


def test_null_shared_census():
    recs = records(
        row("a", "x", True, null_shared=True),
        row("a", "y", False, null_shared=True),
        row("b", "x", False, null_shared=False),
    )
    assert null_shared_census(recs) == {"count_total": 2, "count_links": 1}


def test_records_csv_headers_only_when_empty(tmp_path):
    path, jsonl = tmp_path / "records.csv", tmp_path / "records.jsonl"
    write_records(records(), path, jsonl)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("source_id,target_id,is_link,h_x")
    assert jsonl.read_text() == ""


def test_emit_deterministic(tmp_path):
    recs = records(row("a", "x", True), row("a", "y", False))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_records(recs, p1, tmp_path / "r1.jsonl")
    write_records(recs, p2, tmp_path / "r2.jsonl")
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "r1.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()


def test_scatter_svg_labels_and_determinism():
    recs = records(row("a", "x", True), row("a", "y", False, wmd_sim=0.7, mi=2.0),
                   row("b", "x", False, wmd_sim=None))
    svg = scatter_svg(recs)
    assert "WMD similarity" in svg
    assert "Mutual Information (bits)" in svg
    assert svg.count("<circle") == 2  # the pair without wmd_sim is not drawn
    assert svg == scatter_svg(recs)
    assert scatter_svg(records()).startswith("<svg")


def test_case_listing_json_shape(tmp_path):
    from tracex.report import write_cases_jsonl

    listing = CaseListing("max_loss", "a", "x", True, 1.5, 1)
    path = tmp_path / "cases.jsonl"
    write_cases_jsonl([listing], path)
    doc = json.loads(path.read_text().splitlines()[0])
    assert doc["kind"] == "max_loss" and doc["rank"] == 1


# csv.writer leaves a lone "\r" unquoted under lineterminator="\n", so the CSV
# check below would split such an id (a known limit of records.csv)
ids = st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\r"), min_size=1, max_size=8)
maybe_float = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))
record_rows = st.lists(st.fixed_dictionaries({
    c: ids if c in ID_COLUMNS else st.booleans() if c in BOOL_COLUMNS else maybe_float
    for c in RECORD_COLUMNS
}), max_size=6)
tricky_ids = st.sampled_from(["a,b", 'say "hi"', "it's, \"quoted\"", "naïve", "línea\nnueva", "日本"])


@given(record_rows, tricky_ids)
def test_records_round_trip(tmp_path_factory, rows, tricky_id):
    if rows:
        rows[0]["source_id"] = tricky_id
    recs = records(*rows, columns=RECORD_COLUMNS)
    out = tmp_path_factory.mktemp("records")
    write_records(recs, out / "records.csv", out / "records.jsonl")
    got = read_records(out / "records.jsonl")
    assert list(got) == RECORD_COLUMNS
    for c in RECORD_COLUMNS:
        if c in ID_COLUMNS:
            assert got[c] == recs[c], c
        else:
            assert got[c].dtype == recs[c].dtype, c
            # NaN equals NaN; repr tells -0.0 from 0.0
            assert list(map(repr, got[c].tolist())) == list(map(repr, recs[c].tolist())), c
    with (out / "records.csv").open(newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == RECORD_COLUMNS
    assert [line[:2] for line in table[1:]] == [[r["source_id"], r["target_id"]] for r in rows]


@given(record_rows)
def test_records_jsonl_lines_are_canonical_json(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("records")
    write_records(records(*rows, columns=RECORD_COLUMNS), out / "records.csv", out / "records.jsonl")
    lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(rows)
    for line, r in zip(lines, rows):
        assert line == json.dumps(json.loads(line), sort_keys=True)
        assert json.loads(line) == r


def _cell_texts(values) -> list[str]:
    """A record column's CSV cells, formatted value by value: ids as they
    are, true/false, float repr and '' for NaN."""
    if isinstance(values, list):
        return values
    if values.dtype == bool:
        return ["true" if v else "false" for v in values.tolist()]
    return ["" if math.isnan(v) else repr(v) for v in values.tolist()]


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# -0.0 beside 0.0, and NaNs with the sign bit set or a payload
EDGE_FLOATS = [0.0, -0.0, 1.0, math.nan,
               _float_of_bits(0xFFF8000000000000), _float_of_bits(0x7FF8000000000123)]


@st.composite
def repetitive_records(draw):
    """A records table whose values repeat across rows: every column draws
    its rows from a few values (tricky ids and EDGE_FLOATS among them)."""
    n = draw(st.integers(0, 10))
    any_ids = st.text(alphabet=st.characters(codec="utf-8"), max_size=6)
    id_pool = draw(st.lists(st.one_of(any_ids, tricky_ids, st.just("a\rb")), min_size=1, max_size=3))
    float_pool = draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_infinity=False)),
                               min_size=1, max_size=4))
    column = {c: st.sampled_from(id_pool) if c in ID_COLUMNS else st.booleans() if c in BOOL_COLUMNS
              else st.sampled_from(float_pool) for c in RECORD_COLUMNS}
    cells = {c: draw(st.lists(column[c], min_size=n, max_size=n)) for c in RECORD_COLUMNS}
    return {c: v if c in ID_COLUMNS else np.array(v, dtype=bool if c in BOOL_COLUMNS else np.float64)
            for c, v in cells.items()}


@given(repetitive_records(), st.sampled_from([1, 3, RECORD_BLOCK_ROWS]))
def test_records_bytes_match_cell_by_cell_reference(tmp_path_factory, recs, block_rows):
    out = tmp_path_factory.mktemp("records")
    with mock.patch("tracex.report.RECORD_BLOCK_ROWS", block_rows):  # rows split across writes
        write_records(recs, out / "records.csv", out / "records.jsonl")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    writer.writerows(zip(*(_cell_texts(recs[c]) for c in RECORD_COLUMNS)))
    assert (out / "records.csv").read_bytes() == buf.getvalue().encode("utf-8")
    values = [recs[c] if c in ID_COLUMNS else recs[c].tolist() for c in RECORD_COLUMNS]
    rows = [{c: None if type(v) is float and math.isnan(v) else v for c, v in zip(RECORD_COLUMNS, r)}
            for r in zip(*values)]
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    assert (out / "records.jsonl").read_bytes() == expected.encode("utf-8")


def test_records_bytes_pinned(tmp_path):
    """Exact records.csv, records.jsonl and cases.jsonl of a fixed synthetic
    testbed under --vectorizer none. A change to how records are computed or
    written moves this pin; such a change must say why."""
    assert main(["synth", "--seed", "7", "--sources", "12", "--targets", "10",
                 "--overlap", "0.6", "--out", str(tmp_path / "tb")]) == 0
    assert main(["analyze", "--manifest", str(tmp_path / "tb" / "manifest.json"),
                 "--vectorizer", "none", "--out", str(tmp_path / "out")]) == 0
    report_dir = tmp_path / "out" / "reports" / "synthetic-7"
    digests = {name: hashlib.sha256((report_dir / name).read_bytes()).hexdigest()
               for name in ("records.csv", "records.jsonl", "cases.jsonl")}
    assert digests == {
        "records.csv": "0ce523832f2aec21d07d70c10a75b364e02f1ca1c87526a392e82ab5830a7e96",
        "records.jsonl": "f09d1de8ca779644621651008c4f49eb66b7ce9dfc3a064f6a346b09c53ad215",
        "cases.jsonl": "bcc332bf5679f08b8646df51233c2e1b6c920253034acaf1435edeb9b3bab1af",
    }


VALID = {c: row("a", "x", True)[c] for c in RECORD_COLUMNS}


@pytest.mark.parametrize("content", [
    '{"source_id": "a"}\n',  # a row that lacks columns
    "not json\n",
    "[1, 2]\n",
    json.dumps({**VALID, "d2": 1.0}),  # a column too many
    json.dumps({**VALID, "mi": "1.0"}),
    json.dumps({**VALID, "mi": 1}),
    json.dumps({**VALID, "mi": math.inf}),
    json.dumps({**VALID, "is_link": 1}),
    json.dumps({**VALID, "null_shared": None}),
    json.dumps({**VALID, "target_id": 7}),
])
def test_read_records_rejects_malformed_lines(tmp_path, content):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(VALID) + "\n" + content, encoding="utf-8")
    with pytest.raises(ReportError):
        read_records(path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ReportError):
        read_records(path)
    path.write_text(json.dumps(VALID) + "\n\n", encoding="utf-8")
    assert read_records(path)["mi"].tolist() == [1.0]
