import csv
import hashlib
import io
import json
import math
import struct
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracex.cli import main
from tracex.corpus import ConfigError, load_testbed
from tracex.embeddings import EmbeddingMatrix
from tracex.pipeline import RunConfig, analyze_testbed
from tracex.report import (
    BOOL_COLUMNS,
    BY_LINKS_METRICS,
    ID_COLUMNS,
    RECORD_BLOCK_ROWS,
    RECORD_COLUMNS,
    TABLE_REPEATS,
    CaseListing,
    IdColumn,
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
        "d1": 1.0, "null_shared": False,
        "wmd": 1.0, "scm": 0.3, "cos": 0.2, "euc": 0.5,
        "wmd_sim": 0.5, "cos_sim": 0.83, "wmd_relaxed": False,
    }
    base.update(overrides)
    return base


def id_column(ids: list[str]) -> IdColumn:
    """The IdColumn of one id per row: codes into the sorted distinct ids."""
    names = sorted(set(ids))
    code = {name: k for k, name in enumerate(names)}
    return IdColumn(np.array([code[i] for i in ids], dtype=np.min_scalar_type(len(names))), names)


def row_ids(column: IdColumn) -> list[str]:
    """An IdColumn's id of each row."""
    return [column.names[k] for k in column.codes.tolist()]


def records(*rows, columns=None):
    """The records table (layout in tracex.report) of row() dicts, None as NaN."""
    return {
        c: id_column([r[c] for r in rows]) if c in ID_COLUMNS
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


@pytest.mark.parametrize("block_rows", [1, 4, 8192])
def test_information_table_means_add_left_to_right_from_zero(block_rows):
    """The means add left to right from 0, block by block, on any Python:
    3.12's sum() compensates and makes this h_x 2/13, 3.11's makes it 0."""
    values = [0.1] * 10 + [1e16, 1.0, -1e16]
    recs = records(*(row("a", f"t{i:02d}", False, h_x=v, h_y=-0.0, loss=0.0, noise=-v)
                     for i, v in enumerate(values)))
    with mock.patch("tracex.report.MEAN_BLOCK_ROWS", block_rows):
        table = information_table(recs, "tb")
    assert table["h_x"] == 0.0
    assert repr(table["h_y"]) == "0.0"  # 0 + -0.0, as sum() starts
    assert table["d2"] == 0.0  # h_y - loss, row by row
    assert table["d3"] == 0.0  # h_x - noise = 2 h_x: 0.2 ten times, then 2e16, 2.0, -2e16


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
    src, tgt = row_ids(recs["source_id"]), row_ids(recs["target_id"])
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


def _orphans_reference(recs, policy):
    """detect_orphans by sorted() over (-value, source id, target id) keys."""
    values, is_link = recs[policy.metric].tolist(), recs["is_link"].tolist()
    src, tgt = row_ids(recs["source_id"]), row_ids(recs["target_id"])
    links = sorted(v for v, link in zip(values, is_link) if link and not math.isnan(v))
    if not links:
        return []
    pos = policy.quantile * (len(links) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    threshold = links[lo] if lo == hi else links[lo] * (1 - (pos - lo)) + links[hi] * (pos - lo)
    hits = sorted((i for i, v in enumerate(values) if not is_link[i] and v >= threshold),
                  key=lambda i: (-values[i], src[i], tgt[i]))
    return [("orphan_link", src[i], tgt[i], False, repr(values[i]), rank)
            for rank, i in enumerate(hits, start=1)]


@given(st.data())
def test_detect_orphans_match_sorted_keys(data):
    n = data.draw(st.integers(0, 14))
    pairs = st.tuples(st.sampled_from("cab"), st.sampled_from("yx"))  # rows in any order, duplicates
    values = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, math.nan])  # ties, -0.0 and NaN
    rows = [row(s, t, link, mi=v, si=w) for (s, t), link, v, w in data.draw(st.lists(
        st.tuples(pairs, st.booleans(), values, values), min_size=n, max_size=n))]
    recs = records(*rows)
    policy = OrphanPolicy(quantile=data.draw(st.sampled_from([0.01, 0.25, 0.5, 0.99])),
                          metric=data.draw(st.sampled_from(["mi", "si"])))
    got = [(c.kind, c.source_id, c.target_id, c.is_link, repr(c.value), c.rank)
           for c in detect_orphans(recs, policy)]
    assert got == _orphans_reference(recs, policy)


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
    digests = {color: hashlib.sha256(scatter_svg(recs, color).encode("utf-8")).hexdigest()
               for color in ("loss", "noise")}
    assert digests == {
        "loss": "876af703465d97b62eb76a6dbe52f46990ce4a67d870bb45a89eeafe3640018d",
        "noise": "fbaa0d9c9211e8dd909d6a98410c596080fc4bdddd9ad9a04bd5e29e4d9dd23a",
    }


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
            # codes in sorted id order, of the narrowest dtype
            assert got[c].names == recs[c].names, c
            assert got[c].codes.dtype == recs[c].codes.dtype, c
            assert got[c].codes.tolist() == recs[c].codes.tolist(), c
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
    if isinstance(values, IdColumn):
        return row_ids(values)
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
    return {c: id_column(v) if c in ID_COLUMNS else np.array(v, dtype=bool if c in BOOL_COLUMNS else np.float64)
            for c, v in cells.items()}


def _floats_with_distinct(rng, pool: np.ndarray, k: int, n: int) -> np.ndarray:
    """n floats, in random order, with exactly k distinct bit patterns of pool."""
    return rng.permutation(np.concatenate([pool[:k], rng.choice(pool[:k], n - k)]))


@st.composite
def mixed_records(draw, n: int):
    """An n-row records table whose float columns take both paths of
    write_records. `h_x` has exactly the most distinct values that keep one
    text table for the column, `h_y` one more. `si` and `sx` repeat 0.0,
    -0.0 and two NaN payloads. The other float columns are mostly distinct
    (random bit patterns and normal draws) and are formatted block by block;
    `mi` opens with the values of `si`'s pool, in one block for blocks of 4
    rows or more."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    fresh = np.where(rng.random(n) < 0.5, bits, rng.standard_normal(n))
    edges = np.array(EDGE_FLOATS)
    pool = np.concatenate([edges, fresh])
    pool = pool[np.unique(pool.view(np.int64), return_index=True)[1]]  # distinct bit patterns
    pool = rng.permutation(pool)
    repeats = min(n, max(n // TABLE_REPEATS, 1))
    names = draw(st.lists(st.one_of(tricky_ids, st.just("a\rb")), min_size=1, max_size=4))
    recs = {c: id_column([names[i] for i in rng.integers(0, len(names), n)]) for c in ID_COLUMNS}
    for c in RECORD_COLUMNS:
        if c in BOOL_COLUMNS:
            recs[c] = rng.random(n) < 0.5
        elif c in ("si", "sx"):
            recs[c] = _floats_with_distinct(rng, edges[[0, 1, 4, 5]], min(n, 4), n)
        elif c not in ID_COLUMNS:
            k = {"h_x": repeats, "h_y": min(n, repeats + 1)}.get(c, min(n, len(pool)))
            recs[c] = _floats_with_distinct(rng, pool, k, n)
    recs["mi"][:4] = edges[[0, 1, 4, 5]][:n]
    return recs


def _assert_records_match_cell_by_cell(recs: dict, out: Path, block_rows: int) -> None:
    """write_records under blocks of block_rows rows writes the bytes of
    csv.writer over _cell_texts and of json.dumps over each row."""
    with mock.patch("tracex.report.RECORD_BLOCK_ROWS", block_rows):  # rows split across writes
        write_records(recs, out / "records.csv", out / "records.jsonl")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    writer.writerows(zip(*(_cell_texts(recs[c]) for c in RECORD_COLUMNS)))
    assert (out / "records.csv").read_bytes() == buf.getvalue().encode("utf-8")
    values = [row_ids(recs[c]) if c in ID_COLUMNS else recs[c].tolist() for c in RECORD_COLUMNS]
    rows = [{c: None if type(v) is float and math.isnan(v) else v for c, v in zip(RECORD_COLUMNS, r)}
            for r in zip(*values)]
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    assert (out / "records.jsonl").read_bytes() == expected.encode("utf-8")


@given(st.data(), st.sampled_from([1, 3, RECORD_BLOCK_ROWS]))
def test_records_bytes_match_cell_by_cell_reference(tmp_path_factory, data, block_rows):
    # mixed tables of block multiples and their neighbours, and of 24 or 25 rows
    sizes = st.sampled_from(sorted({0, 1, block_rows - 1, block_rows, block_rows + 1, 2 * block_rows,
                                    3 * TABLE_REPEATS, 3 * TABLE_REPEATS + 1}))
    recs = data.draw(st.one_of(repetitive_records(), sizes.flatmap(mixed_records)))
    _assert_records_match_cell_by_cell(recs, tmp_path_factory.mktemp("records"), block_rows)


def _info_only_records() -> dict:
    """A --vectorizer none-shaped table over 3 blocks of RECORD_BLOCK_ROWS:
    the six semantic columns all NaN and wmd_relaxed all false (constant
    columns), h_x and h_y one value per artifact, the other floats distinct,
    with NaN in `mi` in the second block only."""
    n_sources, n_targets = 5, (2 * RECORD_BLOCK_ROWS + 7) // 5 + 1
    recs = _distinct_floats_records(n_sources, n_targets)
    n = n_sources * n_targets
    rng = np.random.default_rng(3)
    recs["h_x"] = np.repeat(rng.random(n_sources), n_targets)
    recs["h_y"] = np.tile(rng.random(n_targets), n_sources)
    recs["mi"][[RECORD_BLOCK_ROWS, RECORD_BLOCK_ROWS + 9]] = math.nan
    recs.update({c: np.full(n, math.nan) for c in ("wmd", "scm", "cos", "euc", "wmd_sim", "cos_sim")},
                wmd_relaxed=np.zeros(n, dtype=bool))
    return recs


def _all_constant_records(n: int) -> dict:
    """n copies of one row: every column holds one cell."""
    return records(*[row('it\'s, "quoted"', "línea\nnueva", True, mi=None, si=-0.0)] * n, columns=RECORD_COLUMNS)


def _constant_but_last_records() -> dict:
    """Columns that hold one cell on every row but the last, in the second
    block of RECORD_BLOCK_ROWS: an id, a flag, a float and an undefined one."""
    rows = [row("a", "x", False, loss=1.0, scm=None)] * (RECORD_BLOCK_ROWS + 40)
    rows.append(row("a", "y", False, loss=None, scm=0.25, wmd_relaxed=True))
    return records(*rows, columns=RECORD_COLUMNS)


@pytest.mark.parametrize("block_rows", [1, 3, RECORD_BLOCK_ROWS])
@pytest.mark.parametrize("table", [
    _info_only_records,
    lambda: _all_constant_records(1),
    lambda: _all_constant_records(600),
    _constant_but_last_records,
    lambda: records(columns=RECORD_COLUMNS),
], ids=["info-only", "one-row", "600-copies", "constant-but-last", "no-rows"])
def test_records_bytes_edge_tables(tmp_path, table, block_rows):
    _assert_records_match_cell_by_cell(table(), tmp_path, block_rows)


def _distinct_floats_records(n_sources: int, n_targets: int) -> dict:
    """An analyze-shaped records table whose float columns are all distinct."""
    rng = np.random.default_rng(n_sources)
    n = n_sources * n_targets
    return {
        "source_id": id_column([f"S{i:04d}" for i in range(n_sources) for _ in range(n_targets)]),
        "target_id": id_column([f"T{j:04d}" for _ in range(n_sources) for j in range(n_targets)]),
        **{c: rng.random(n) < 0.1 for c in BOOL_COLUMNS},
        **{c: rng.standard_normal(n) for c in RECORD_COLUMNS if c not in ID_COLUMNS + BOOL_COLUMNS},
    }


def _traced_peak(recs, out) -> int:
    """The peak of the memory that write_records allocates, in bytes."""
    tracemalloc.start()
    try:
        write_records(recs, out / "records.csv", out / "records.jsonl")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_records_memory_follows_the_block_not_the_table(tmp_path):
    block = _distinct_floats_records(4, RECORD_BLOCK_ROWS // 4)
    _traced_peak(block, tmp_path)  # first call: lazy imports and caches
    one_block = _traced_peak(block, tmp_path)
    small = _traced_peak(_distinct_floats_records(100, 200), tmp_path)
    large = _traced_peak(_distinct_floats_records(400, 200), tmp_path)
    assert large < 16 << 20, large
    # 60,000 more rows cost less than writing a table of one block
    assert large - small < one_block, (small, large, one_block)


def test_read_records_memory_follows_the_columns(tmp_path):
    write_records(_distinct_floats_records(100, 200), tmp_path / "records.csv", tmp_path / "records.jsonl")
    read_records(tmp_path / "records.jsonl")  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        got = read_records(tmp_path / "records.jsonl")
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got["mi"]) == 20_000
    # the file's text or one dict per row, held whole, takes several times the columns
    assert peak <= 3 * size, (peak, size)


def test_report_views_memory_follows_a_few_columns():
    """information_table, extreme_cases and detect_orphans over a 150x150
    table hold a few float columns' worth at most: no Python float per pair.
    extreme_cases holds one copy of the defined values and a few masks."""
    recs = _distinct_floats_records(150, 150)
    column = recs["mi"].nbytes
    views = {"information_table": lambda: information_table(recs, "tb"),
             "extreme_cases": lambda: extreme_cases(recs, "loss") + extreme_cases(recs, "noise"),
             "detect_orphans": lambda: detect_orphans(recs, OrphanPolicy())}
    for name, view in views.items():
        view()  # first call: lazy imports and caches
        tracemalloc.start()
        try:
            view()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * column, (name, peak / column)
        # the defined rows as an index array, or a partitioned second copy, take this past 2
        assert name != "extreme_cases" or peak <= 2 * column, (name, peak / column)


def _table_bytes(records: dict) -> int:
    """Bytes the records table holds: each distinct array buffer once, and
    each id column's codes and its list of names (the id strings are the
    artifacts' own)."""
    arrays = [v.codes if isinstance(v, IdColumn) else v for v in records.values()]
    buffers = {id(v if v.base is None else v.base): v.nbytes for v in arrays}
    return sum(buffers.values()) + sum(sys.getsizeof(v.names) for v in records.values() if isinstance(v, IdColumn))


def test_scoring_memory_follows_the_records_table(tmp_path, monkeypatch):
    """analyze_testbed on a 150x150 info-large-shaped testbed under
    --vectorizer none: tokens, counts and scoring scratch on top of the
    records table it returns stay under 0.8 times that table."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    testbed = workloads.zipf_testbed(11, **dict(workloads.INFO_LARGE, n_src=150, n_tgt=150))
    tb = load_testbed(workloads.write_manifest_tree("zipf", *testbed, tmp_path))
    cfg = RunConfig(manifests=[], vectorizer="none")
    analyze_testbed(tb, cfg)  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        result = analyze_testbed(tb, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense targets x vocabulary count matrix, six semantic grids where one
    # would do, or two sorts per AUC take this past 1.8
    assert peak <= 1.8 * _table_bytes(result.records), (peak, _table_bytes(result.records))


PINNED_FILES = ("records.csv", "records.jsonl", "cases.jsonl", "information.csv", "by_links.csv",
                "correlations.csv", "evaluation.json", "scatter_loss.svg", "scatter_noise.svg")


def _analyze_digests(manifest: Path, out: Path, *args: str) -> tuple[dict[str, str], str]:
    """Run analyze on one testbed; the sha256 of each report file, and of
    run.json's testbeds entry (run.json's config holds the run's own paths)."""
    assert main(["analyze", "--manifest", str(manifest), "--out", str(out), *args]) == 0
    (report_dir,) = (out / "reports").iterdir()
    digests = {name: hashlib.sha256((report_dir / name).read_bytes()).hexdigest() for name in PINNED_FILES}
    testbeds = json.loads((out / "run.json").read_text(encoding="utf-8"))["testbeds"]
    return digests, hashlib.sha256(json.dumps(testbeds, sort_keys=True).encode("utf-8")).hexdigest()


def _synth_manifest(tmp_path: Path, seed: int, sources: int, targets: int, overlap: float) -> Path:
    assert main(["synth", "--seed", str(seed), "--sources", str(sources), "--targets", str(targets),
                 "--overlap", str(overlap), "--out", str(tmp_path / "tb")]) == 0
    return tmp_path / "tb" / "manifest.json"


# The pins below fix the exact report files of each analyze path. A change to
# how records are computed or written moves a pin; such a change must say why.

def test_records_bytes_pinned(tmp_path):
    """A fixed synthetic testbed under --vectorizer none."""
    manifest = _synth_manifest(tmp_path, 7, 12, 10, 0.6)
    digests, testbeds = _analyze_digests(manifest, tmp_path / "out", "--vectorizer", "none")
    assert digests == {
        "records.csv": "0ce523832f2aec21d07d70c10a75b364e02f1ca1c87526a392e82ab5830a7e96",
        "records.jsonl": "f09d1de8ca779644621651008c4f49eb66b7ce9dfc3a064f6a346b09c53ad215",
        "cases.jsonl": "bcc332bf5679f08b8646df51233c2e1b6c920253034acaf1435edeb9b3bab1af",
        "information.csv": "55ce352b07fdc4708e3042eb78d90964e0ec7a70ac9cea209699bfeccfb4f6f5",
        "by_links.csv": "4431ca0d09521652159bb50e802ea56731badeed052bb124468330c3ec18b2a5",
        "correlations.csv": "b91f446574f26d2f46282fe51ac92ab01ceb8db9ca1a6dda907b9c329be6e9aa",
        "evaluation.json": "cf978f90bd26d00d6d339881b2df4860c61f5be0908da2a771da2f240c578eef",
        "scatter_loss.svg": "cbc141843b6761a1989d9daea8cc6f8327db737a1a3db3d349fe44615460679b",
        "scatter_noise.svg": "eaa3a2eb23402812d777e508750140f5b1f4df354953527299396cc60b108566",
    }
    assert testbeds == "170963ec9bcd50e3e2df50ea27d35f951c0b8d164195894855ae1de16a934c1d"


def test_skipgram_tree_pinned(tmp_path):
    """The same testbed with trained skip-gram vectors: exact WMD, SCM,
    COS/EUC over mean word vectors, and the epoch losses in run.json."""
    manifest = _synth_manifest(tmp_path, 7, 12, 10, 0.6)
    digests, testbeds = _analyze_digests(manifest, tmp_path / "out", "--dim", "8", "--epochs", "3",
                                         "--seed", "3")
    assert digests == {
        "records.csv": "62a6306714a58d99edf34bcfd4fe3cefe1a0ea9127d4f7f76a96bbe8d5d2b253",
        "records.jsonl": "bec3da46ff4cd3476ac1e928fa2053356ddf072ca9b8e30a33060304490b0b12",
        "cases.jsonl": "bcc332bf5679f08b8646df51233c2e1b6c920253034acaf1435edeb9b3bab1af",
        "information.csv": "55ce352b07fdc4708e3042eb78d90964e0ec7a70ac9cea209699bfeccfb4f6f5",
        "by_links.csv": "690463556f4841029d38dc25f8036ed710412fc24fce8dbe653726eec91d069a",
        "correlations.csv": "8670bca5e89d4b0267986efe9ac85375771e8e7a814d4c62a58d142d7eb25727",
        "evaluation.json": "6dae919f284dc1dfa3b64c67923c8b765c297f548b35e40f08f86c74a391ccde",
        "scatter_loss.svg": "4574c10b235a3440091b7075373b279b7f0ecaccc5bf807083aa4c550802037c",
        "scatter_noise.svg": "4fe60f1ef62b7cb0453d7b38a75842e9cf98c4c50be5311839a7ca5efd6110d3",
    }
    assert testbeds == "d95d6ffb561bac758f271f049e85ec8d24ea435a08b8626a1cbdade4abaa48b5"


def test_bpe_pvdbow_tree_pinned(tmp_path):
    """BPE tokens trained on the testbed (bpe8k) and PV-DBOW document vectors."""
    manifest = _synth_manifest(tmp_path, 9, 6, 6, 0.7)
    digests, testbeds = _analyze_digests(manifest, tmp_path / "out", "--preproc", "bpe8k",
                                         "--vectorizer", "pvdbow", "--dim", "8", "--epochs", "3",
                                         "--seed", "3")
    assert digests == {
        "records.csv": "dc122115ac6c67ae71db3acbd9f38e92b8d46028d02d1c81f003131cb13e1ee7",
        "records.jsonl": "6816f913dafbda11990e95aea2ada0ee52a5273c82546d30762a2e0058cd9005",
        "cases.jsonl": "07393541fd41ef073e9af4c168ed82ed3f1bb4be21db67575caefef9b6d9b47b",
        "information.csv": "de38764f98c38c9f08398215ee6de6148389834a08f18f1e3c2df8a6bd4c5f45",
        "by_links.csv": "1d1b4283a9df13e8638e1f530b8ebfa8915ce00a82e8e0db301ef7bbfd9c626e",
        "correlations.csv": "8e0fa70b38e6a5e1b2852789f1d5ab22bf9db14c85d80905c08e318bd2c3e15d",
        "evaluation.json": "9b2d8106b15807625f7c15b36c3557aba7e67492040be06c39d844785e128f26",
        "scatter_loss.svg": "8ead8e2927b7437b52db93c0eeee1464b66f7371b53ff86b3872c950dcad67c2",
        "scatter_noise.svg": "9f6bd3b0a87f1c18aba0f7aacfface2a058485ec7aaa7fd44b972c180a190a83",
    }
    assert testbeds == "1ee1b89b19d21462c47685d61806291f7fb920d4f5a5bbdc3ca929fe96838819"


def test_given_vectors_tree_pinned(tmp_path):
    """Seeded word vectors (--embeddings) on bags that take every WMD branch:
    an empty source, a target with no in-vocab token, one pair of 257 x 256
    in-vocab tokens past the exact limit (wmd_relaxed), and exact pairs of
    2 x 2, 2 x 256 and 257 x 2 tokens, which share one solver batch."""
    words = [a + b + c for a in "abcdefg" for b in "abcdefg" for c in "abcdefg"]
    tb = tmp_path / "tb"
    for side, files in (("src", {"big": " ".join(words[:257]), "small": "aaa aab aab", "empty": ""}),
                        ("tgt", {"big": " ".join(words[1:257]), "tiny": "aac aaa", "oov": "qqq rrrr"})):
        (tb / side).mkdir(parents=True)
        for name, text in files.items():
            (tb / side / f"{name}.txt").write_text(text)
    (tb / "oracle.txt").write_text("big big\nsmall tiny\n")
    (tb / "manifest.json").write_text(json.dumps({
        "name": "bags", "source_dir": "src", "target_dir": "tgt", "oracle_file": "oracle.txt",
    }))
    vectors = np.random.default_rng(4).normal(size=(len(words), 3))
    EmbeddingMatrix(vocab=words, vectors=vectors).save(tmp_path / "vecs.txt")
    digests, testbeds = _analyze_digests(tb / "manifest.json", tmp_path / "out",
                                         "--embeddings", str(tmp_path / "vecs.txt"))
    assert digests == {
        "records.csv": "8531d6f89850e8d993c616313db572fc47839be223e23a166b00c2def0fc95d2",
        "records.jsonl": "c912b4d57a96bf785944fb9bcb16d5895432b457c021eb22f9c76172285ec0b9",
        "cases.jsonl": "f1af06ee8b0f7b2a712a685d5f020bdf342786a81ff5880aeed5d0987ae1bedc",
        "information.csv": "ab376c098dc71cc1a8e79000de451d0c23840fddc4262c1d12894bebaf89245a",
        "by_links.csv": "f75232fc4ad641d076038487f5f6b0a308730585602d89b61234665c7958b743",
        "correlations.csv": "b64c04f5f3152fbd85f175f373bd112fba46d21e2fde9090fe2bdbfc3826374a",
        "evaluation.json": "4081a9b002d526d0b3217caefeeffa37ba138466165841b9f055e4114349f3c8",
        "scatter_loss.svg": "ec0dcd21f326245c4046d97ae114cb6ee0c642ae50bc4e389c2729ca4507d173",
        "scatter_noise.svg": "3e33902fdcd11c1fe49fac780d8ac8e64186ca00ac43e7de8ab798bba6b4e089",
    }
    assert testbeds == "4be07c27ddbdc3d84e4dd288f7eebe6cdb6de5a079cf63dcf84e71eeb1cd7333"


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
