"""Interpretive report surfaces over the per-pair records.

`records`, the one per-pair table from scoring to the files, maps each
column name to one value per candidate pair, in candidate order: each id
column is an `IdColumn` (a code per row into its side's sorted ids),
BOOL_COLUMNS are bool arrays, and every other column is a float64 array
with NaN exactly where its metric is undefined. `analyze` makes exactly
RECORD_COLUMNS, those of records.csv/.jsonl; nothing else it holds grows
with the pair count.

Tables and case listings are pure views of the records; emission is
deterministic byte-for-byte given identical inputs. `write_report_tree`
writes a testbed's report files, the one place that names them; it takes
the correlation cells from its caller. write_records writes
both records files in one pass over row blocks: a column that holds one
cell on every row is folded into the line templates once; ids, flags and
floats with few distinct values keep one text per distinct value; the
distinct-heavy float columns are formatted row by row, block by block, so
their memory follows the block and not the row count. read_records reads
the file back line by line, a block of rows at a time. `case_listings`, the
lines of cases.jsonl and of `tracex cases` alike, rank by one stable NumPy
sort, ties in id order (code order); a top-k listing holds one copy of its
column. Testbed means sum block by block as well.

Column naming keeps both conventions from the published-table layout:
`ci_noise` carries H_pool - H(Y) (semantically the loss) and `ci_loss`
carries H_pool - H(X) (semantically the noise), so mi + ci_noise = h_x and
mi + ci_loss = h_y.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import closing
from dataclasses import asdict, dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from tracex.corpus import ConfigError, DataError, _reading, malformed
from tracex.evaluation import CorrelationCell, SummaryStats, summarize

RECORD_COLUMNS = [
    "source_id", "target_id", "is_link",
    "h_x", "h_y", "h_pool", "mi", "loss", "noise", "si", "sx", "d1", "null_shared",
    "wmd", "scm", "cos", "euc", "wmd_sim", "cos_sim", "wmd_relaxed",
]
ID_COLUMNS = ("source_id", "target_id")
BOOL_COLUMNS = ("is_link", "null_shared", "wmd_relaxed")

BY_LINKS_METRICS = ["scm", "wmd_sim", "cos", "euc", "h_x", "h_y", "ci_noise", "ci_loss", "mi", "si", "sx"]
CASE_METRICS = ("loss", "noise")  # the columns an extreme-case listing ranks
CASE_K = 5  # the pairs at each end of an extreme-case listing
ORPHAN_METRICS = ("mi", "si")


class ReportError(DataError):
    """Raised for a records file that is not JSON records."""


@dataclass(frozen=True)
class IdColumn:
    """A record id column: row k's id is names[codes[k]]. `names` holds the
    side's distinct ids once, in sorted order, so code order is id order;
    `codes` is an unsigned array of np.min_scalar_type(len(names))."""
    codes: np.ndarray
    names: list[str]


@dataclass(frozen=True)
class OrphanPolicy:
    quantile: float = 0.99
    metric: str = "mi"

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ConfigError(f"orphan quantile must be inside (0, 1), got {self.quantile}")
        if self.metric not in ORPHAN_METRICS:
            raise ConfigError(f"orphan metric must be {' or '.join(ORPHAN_METRICS)}, got {self.metric}")


@dataclass(frozen=True)
class CaseListing:
    kind: str
    source_id: str
    target_id: str
    is_link: bool
    value: float
    rank: int


MEAN_BLOCK_ROWS = 8192  # rows per step of a testbed mean: 64 KiB of floats


def _mean(column: np.ndarray, minus: np.ndarray | None = None) -> float | None:
    """Mean of the non-NaN values of column, or of column - minus row by row,
    read block by block. The sum runs left to right from 0, each block
    carrying on from the last, as Python 3.11's sum() of a list adds:
    np.mean's pairwise sum would move the last bits, and 0 + -0.0 is 0.0."""
    total, count = 0.0, 0
    for start in range(0, len(column), MEAN_BLOCK_ROWS):
        rows = slice(start, start + MEAN_BLOCK_ROWS)
        block = column[rows] if minus is None else column[rows] - minus[rows]
        block = block[~np.isnan(block)]
        if len(block):
            total = float(np.cumsum(np.concatenate(([total], block)))[-1])
            count += len(block)
    return total / count if count else None


def information_table(records: dict, testbed: str) -> dict:
    """One aggregate row per testbed in the published layout, whose
    experiment column stays empty."""
    return {
        "experiment": "",
        "testbed": testbed,
        "h_x": _mean(records["h_x"]),
        "h_y": _mean(records["h_y"]),
        "d1": _mean(records["d1"]),
        "ci_noise": _mean(records["loss"]),   # H_pool - H(Y): printed noise column
        "d2": _mean(records["h_y"], records["loss"]),
        "ci_loss": _mean(records["noise"]),   # H_pool - H(X): printed loss column
        "d3": _mean(records["h_x"], records["noise"]),
        "mi": _mean(records["mi"]),
        "si": summarize(records["si"]).formatted() if len(records["si"]) else "",
        "sx": summarize(records["sx"]).formatted() if len(records["sx"]) else "",
    }


def by_links_table(records: dict) -> dict[str, dict[str, SummaryStats | None]]:
    """Summaries of each BY_LINKS_METRICS column for link vs non-link pairs,
    over the pairs where the metric is defined."""
    columns = {**records, "ci_noise": records["loss"], "ci_loss": records["noise"]}
    out: dict[str, dict[str, SummaryStats | None]] = {"link": {}, "non_link": {}}
    for group, selected in (("link", records["is_link"]), ("non_link", ~records["is_link"])):
        for metric in BY_LINKS_METRICS:
            values = columns[metric][selected]
            values = values[~np.isnan(values)]
            out[group][metric] = summarize(values) if len(values) else None
    return out


def _listing(kind: str, records: dict, column: np.ndarray, ranked: np.ndarray) -> list[CaseListing]:
    src, tgt = records["source_id"], records["target_id"]
    rows = zip(src.codes[ranked].tolist(), tgt.codes[ranked].tolist(),
               records["is_link"][ranked].tolist(), column[ranked].tolist())
    return [CaseListing(kind, src.names[s], tgt.names[t], link, value, rank)
            for rank, (s, t, link, value) in enumerate(rows, start=1)]


def _ranked(records: dict, column: np.ndarray, selected: np.ndarray, descending: bool,
            k: int | None = None) -> np.ndarray:
    """The rows of the bool mask `selected`, never NaN in `column`, by value
    (highest first when descending), ties in (source id, target id) order
    and then in row order; the first k only, when k is given. The rows that
    can place are ranked by one stable NumPy sort over (value, source code,
    target code): code order is id order. Beyond the rows that can place,
    this holds one copy of the selected values."""
    if k is not None and k < np.count_nonzero(selected):
        values = column[selected]
        if descending:
            np.negative(values, out=values)
        values.partition(k - 1)
        threshold = values[k - 1]
        # the k lowest and their ties, from the column itself: negation is exact
        selected = selected & (column >= -threshold if descending else column <= threshold)
    rows = np.flatnonzero(selected)
    values = column[rows]
    if descending:
        np.negative(values, out=values)
    # the last key sorts first; equal pairs keep row order
    return rows[np.lexsort((records["target_id"].codes[rows], records["source_id"].codes[rows], values))[:k]]


def extreme_cases(records: dict, metric: str, k: int = CASE_K) -> list[CaseListing]:
    """Top-k and bottom-k pairs (k >= 1) by metric, one of CASE_METRICS; ties in id order."""
    column = records[metric]
    defined = ~np.isnan(column)
    return (_listing(f"max_{metric}", records, column, _ranked(records, column, defined, True, k))
            + _listing(f"min_{metric}", records, column, _ranked(records, column, defined, False, k)))


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile over a pre-sorted, non-empty list."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_values[lo]
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def detect_orphans(records: dict, policy: OrphanPolicy = OrphanPolicy()) -> list[CaseListing]:
    """Non-link pairs whose metric reaches the high quantile of true links,
    highest first, ties broken by id order; none when no true link has the
    metric defined."""
    column = records[policy.metric]
    is_link = records["is_link"]
    link_values = np.sort(column[is_link & ~np.isnan(column)]).tolist()
    if not link_values:
        return []
    threshold = _quantile(link_values, policy.quantile)
    hits = ~is_link & (column >= threshold)
    return _listing("orphan_link", records, column, _ranked(records, column, hits, True))


def case_listings(records: dict, metrics, k: int, policy: OrphanPolicy) -> list[CaseListing]:
    """The extreme cases of each metric, then the orphans: the lines of cases.jsonl and of `tracex cases`."""
    return [c for metric in metrics for c in extreme_cases(records, metric, k)] + detect_orphans(records, policy)


def null_shared_census(records: dict) -> dict[str, int]:
    null_shared = records["null_shared"]
    return {
        "count_total": int(null_shared.sum()),
        "count_links": int((null_shared & records["is_link"]).sum()),
    }


RECORD_BLOCK_ROWS = 512  # rows per write; a block's text is a few hundred KB
# A float column whose values recur this often on average keeps one text
# table: it holds at most rows / 8 texts, and formatting it row by row
# instead would repeat each repr call 8 times or more.
TABLE_REPEATS = 8

_FLAG_TEXTS = np.array(["false", "true"], dtype=object)


def _csv_field(value: str) -> str:
    """`value` as a field of a row that records.csv's csv.writer writes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted. np.unique hashes: 20-30 times slower on
    distinct floats."""
    ordered = np.sort(keys)
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]


def _column_cells(values) -> tuple[str, str] | Callable[[slice], tuple[list[str], list[str]]]:
    """A record column's cells in records.csv and in records.jsonl: ids
    quoted by csv.writer and by json.dumps, flags as true/false, floats by
    repr and NaN as '' in CSV and null in JSON. A column whose rows all hold
    one cell gives that cell's (CSV, JSON) texts; any other column gives the
    function from a block of rows to its cells. Ids, flags, and floats that
    repeat at least TABLE_REPEATS times on average keep one text per distinct
    value for the whole column; other floats are formatted row by row, so
    their texts take memory by the block, not by the column. Ids are keyed by
    their codes; floats by bit pattern, so -0.0 stays apart from 0.0."""
    if isinstance(values, IdColumn):
        keys, names = values.codes, values.names
        distinct = _distinct(keys)
        tables = (np.array([_csv_field(names[i]) for i in distinct.tolist()], dtype=object),
                  np.array([json.dumps(names[i]) for i in distinct.tolist()], dtype=object))
    elif values.dtype == bool:
        keys = values.view(np.uint8)
        distinct = _distinct(keys)
        tables = (_FLAG_TEXTS[distinct], _FLAG_TEXTS[distinct])
    else:
        keys = values.view(np.int64)
        distinct = _distinct(keys)
        if len(distinct) > 1 and len(distinct) * TABLE_REPEATS > len(keys):
            return lambda block: _float_cells(values[block])
        tables = tuple(np.array(t, dtype=object) for t in _float_cells(distinct.view(np.float64)))
    if len(distinct) == 1:
        return tables[0][0], tables[1][0]

    def by_table(block: slice) -> tuple[list[str], list[str]]:
        at = np.searchsorted(distinct, keys[block])
        return tables[0][at].tolist(), tables[1][at].tolist()
    return by_table


def _float_cells(values: np.ndarray) -> tuple[list[str], list[str]]:
    """Floats as CSV and JSON cells: repr (as json writes them), NaN as ''
    and null. The two lists are one list unless a value is NaN."""
    texts = list(map(repr, values.tolist()))
    nan = np.flatnonzero(np.isnan(values)).tolist()
    if not nan:
        return texts, texts
    json_texts = texts.copy()
    for i in nan:
        texts[i], json_texts[i] = "", "null"
    return texts, json_texts


def _line_template(head: str, columns: list[str], seps: list[str], cells: dict,
                   side: int) -> tuple[list[str], list[str]]:
    """A line as constant texts and the columns whose cells vary between
    them: line = texts[0] + cell of columns[0] + texts[1] + ... + texts[-1].
    A constant column's cell (its `side` text: 0 CSV, 1 JSON) and separator
    join the text before it."""
    texts, varying = [head], []
    for c, sep in zip(columns, seps):
        if isinstance(cells[c], tuple):
            texts[-1] += cells[c][side] + sep
        else:
            varying.append(c)
            texts.append(sep)
    return texts, varying


def _rows(texts: list[str], columns: list[list[str]], rows: int) -> str:
    """`rows` lines of the constant texts with each column's cell between
    them. The texts' repeats bound the lines, as a line may have no column."""
    parts = [repeat(texts[0], rows)]
    for cells, text in zip(columns, texts[1:]):
        parts += [cells, repeat(text, rows)]
    return "".join(map("".join, zip(*parts)))


def write_records(records: dict, csv_path: Path, jsonl_path: Path) -> None:
    """Write records.csv (csv.writer's quoting, LF line ends) and
    records.jsonl (each line json.dumps(row, sort_keys=True)) in one pass
    over blocks of RECORD_BLOCK_ROWS rows, each written to both files. A
    line joins constant texts and its cells' texts (_column_cells): a column
    that holds one cell on every row (such as the semantic columns under
    --vectorizer none) is written into the constant texts once; columns with
    few distinct values (ids, flags, per-artifact entropies) keep one text
    per distinct value; every other column is formatted row by row, block by
    block. Beyond the records themselves, memory is then a few bytes of keys
    per row plus one block's texts:
    test_records_memory_follows_the_block_not_the_table bounds it."""
    cells = {c: _column_cells(records[c]) for c in RECORD_COLUMNS}
    json_columns = sorted(RECORD_COLUMNS)
    csv_texts, csv_varying = _line_template("", RECORD_COLUMNS, [","] * (len(RECORD_COLUMNS) - 1) + ["\n"],
                                            cells, 0)
    json_texts, json_varying = _line_template(f'{{"{json_columns[0]}": ', json_columns,
                                              [f', "{c}": ' for c in json_columns[1:]] + ["}\n"], cells, 1)
    n = len(records["is_link"])
    with csv_path.open("w", encoding="utf-8", newline="") as csv_fh, \
            jsonl_path.open("w", encoding="utf-8", newline="") as jsonl_fh:
        csv_fh.write(",".join(RECORD_COLUMNS) + "\n")
        for start in range(0, n, RECORD_BLOCK_ROWS):
            rows = min(RECORD_BLOCK_ROWS, n - start)
            block = {c: cells[c](slice(start, start + rows)) for c in csv_varying}
            csv_fh.write(_rows(csv_texts, [block[c][0] for c in csv_varying], rows))
            jsonl_fh.write(_rows(json_texts, [block[c][1] for c in json_varying], rows))


def _is_kind(value, kind: type) -> bool:
    """Whether a JSON value fits a record column of type `kind`."""
    if kind is float:
        return value is None or type(value) is float and math.isfinite(value)
    return type(value) is kind


def _json_lines(path: Path) -> Iterator[tuple[int, object]]:
    """The line number and JSON value of each non-blank line of path, read
    line by line; ReportError where a line is not JSON."""
    with _reading(path, "records file"), path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line != "\n":
                try:
                    yield lineno, json.loads(line)
                except (ValueError, RecursionError) as exc:  # not JSON, nested too deep, or an int too long
                    raise ReportError(malformed("records file", path, exc, lineno)) from exc


def _sorted_codes(first: dict[str, int], codes: np.ndarray) -> IdColumn:
    """The id column whose rows have the ids of `codes`, numbered by first
    appearance in `first`, renumbered in sorted id order."""
    names = sorted(first)
    renumber = np.empty(len(names), dtype=np.min_scalar_type(len(names)))
    renumber[[first[name] for name in names]] = np.arange(len(names))
    return IdColumn(renumber[codes], names)


def read_records(path: Path) -> dict:
    """Read a records.jsonl written by write_records back into records; ReportError
    unless every line maps exactly RECORD_COLUMNS to values of their type. Rows
    go into the columns RECORD_BLOCK_ROWS at a time, so memory follows the
    columns, not the file's text. Ids are coded by first appearance as they
    are read, then renumbered in sorted id order."""
    kind = {c: str if c in ID_COLUMNS else bool if c in BOOL_COLUMNS else float for c in RECORD_COLUMNS}
    first: dict[str, dict[str, int]] = {c: {} for c in ID_COLUMNS}  # each side's code by first appearance
    # one array per block, after an empty one
    columns = {c: [np.zeros(0, dtype=np.uint32 if kind[c] is str else kind[c])] for c in RECORD_COLUMNS}
    with closing(_json_lines(path)) as rows:  # closes the file when a row is rejected
        while block := list(islice(rows, RECORD_BLOCK_ROWS)):
            for lineno, r in block:
                if not (isinstance(r, dict) and r.keys() == kind.keys()
                        and all(_is_kind(v, kind[c]) for c, v in r.items())):
                    raise ReportError(malformed("records file", path, f"not a record of the columns "
                                                f"{', '.join(RECORD_COLUMNS)}: {r!r}", lineno))
            for c, column in columns.items():
                if kind[c] is str:
                    codes = first[c]
                    column.append(np.array([codes.setdefault(r[c], len(codes)) for _, r in block], dtype=np.uint32))
                else:
                    column.append(np.array([r[c] for _, r in block], dtype=kind[c]))
    return {c: _sorted_codes(first[c], np.concatenate(v)) if kind[c] is str else np.concatenate(v)
            for c, v in columns.items()}


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A header and rows by csv.writer: None as '', floats by repr."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _summary_cells(stats: SummaryStats | None) -> tuple:
    return (stats.mean, stats.std, stats.n) if stats else (None, None, 0)


def case_json(listing: CaseListing) -> str:
    """A case listing as one line of cases.jsonl, without its line end."""
    return json.dumps(asdict(listing), sort_keys=True)


def write_cases_jsonl(listings: list[CaseListing], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(case_json(c) + "\n" for c in listings)


def scatter_svg(records: dict, color_key: str = "loss") -> str:
    """Self-contained SVG scatter: x=WMD similarity, y=MI, color=loss or noise."""
    width, height, margin = 640, 480, 50
    color_label = {"loss": "Loss (bits)", "noise": "Noise (bits)"}[color_key]
    defined = ~(np.isnan(records["wmd_sim"]) | np.isnan(records["mi"]) | np.isnan(records[color_key]))
    xs, ys, cs = (records[key][defined].tolist() for key in ("wmd_sim", "mi", color_key))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="13">'
        'WMD similarity</text>',
        f'<text x="16" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {height // 2})">Mutual Information (bits)</text>',
        f'<text x="{width - margin}" y="{margin - 20}" text-anchor="end" font-size="12">'
        f'color: {color_label}</text>',
    ]
    if xs:
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        c_lo, c_hi = min(cs), max(cs)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        c_span = (c_hi - c_lo) or 1.0
        for x, y, c in zip(xs, ys, cs):
            px = margin + (x - x_lo) / x_span * (width - 2 * margin)
            py = height - margin - (y - y_lo) / y_span * (height - 2 * margin)
            t = (c - c_lo) / c_span
            red, blue = round(255 * t), round(255 * (1 - t))
            parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
                f'fill="rgb({red},0,{blue})" fill-opacity="0.7"/>'
            )
        for frac in (0.0, 0.5, 1.0):
            xv = x_lo + frac * x_span
            yv = y_lo + frac * y_span
            px = margin + frac * (width - 2 * margin)
            py = height - margin - frac * (height - 2 * margin)
            parts.append(
                f'<text x="{px:.2f}" y="{height - margin + 16}" text-anchor="middle" '
                f'font-size="11">{xv:.2f}</text>'
            )
            parts.append(
                f'<text x="{margin - 6}" y="{py:.2f}" text-anchor="end" '
                f'font-size="11">{yv:.2f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def write_report_tree(records: dict, testbed: str, evaluation: dict, correlations: list[CorrelationCell],
                      policy: OrphanPolicy, out_dir: Path) -> None:
    """Write a testbed's report files into the existing directory out_dir:
    the records, its tables, its case listings, the two scatter plots and
    its evaluation document. This is the one place that names them."""
    write_records(records, out_dir / "records.csv", out_dir / "records.jsonl")
    table = information_table(records, testbed)
    _write_csv(out_dir / "information.csv", list(table), [list(table.values())])
    segregated = by_links_table(records)
    _write_csv(out_dir / "by_links.csv", ["metric", "link", "link_std", "link_n", "nol", "nol_std", "nol_n"],
               ([metric, *_summary_cells(segregated["link"][metric]),
                 *_summary_cells(segregated["non_link"][metric])]
                for metric in BY_LINKS_METRICS))
    _write_csv(out_dir / "correlations.csv", ["semantic_metric", "info_metric", "pearson_r", "n"],
               ([c.metric_a, c.metric_b, c.pearson_r, c.n] for c in correlations))
    write_cases_jsonl(case_listings(records, CASE_METRICS, CASE_K, policy), out_dir / "cases.jsonl")
    for color in ("loss", "noise"):
        (out_dir / f"scatter_{color}.svg").write_text(scatter_svg(records, color) + "\n", encoding="utf-8")
    (out_dir / "evaluation.json").write_text(json.dumps(evaluation, indent=2, sort_keys=True) + "\n",
                                             encoding="utf-8")
