"""Interpretive report surfaces over the per-pair records.

`records`, the one per-pair table from scoring to the files, maps each
column name to one value per candidate pair, in candidate order: ids are
lists of str, BOOL_COLUMNS are bool arrays, and every other column is a
float64 array with NaN exactly where its metric is undefined. `analyze`
makes RECORD_COLUMNS (those of records.csv/.jsonl) plus `d2` and `d3`.

Tables and case listings are pure views of the records; emission is
deterministic byte-for-byte given identical inputs. Column naming keeps
both conventions from the published-table layout: `ci_noise` carries
H_pool - H(Y) (semantically the loss) and `ci_loss` carries H_pool - H(X)
(semantically the noise), so mi + ci_noise = h_x and mi + ci_loss = h_y.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from tracex.corpus import ConfigError
from tracex.evaluation import SummaryStats, summarize

RECORD_COLUMNS = [
    "source_id", "target_id", "is_link",
    "h_x", "h_y", "h_pool", "mi", "loss", "noise", "si", "sx", "d1", "null_shared",
    "wmd", "scm", "cos", "euc", "wmd_sim", "cos_sim", "wmd_relaxed",
]
ID_COLUMNS = ("source_id", "target_id")
BOOL_COLUMNS = ("is_link", "null_shared", "wmd_relaxed")

BY_LINKS_METRICS = ["scm", "wmd_sim", "cos", "euc", "h_x", "h_y", "ci_noise", "ci_loss", "mi", "si", "sx"]


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class OrphanPolicy:
    quantile: float = 0.99
    metric: str = "mi"

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ConfigError(f"orphan quantile must be inside (0, 1), got {self.quantile}")
        if self.metric not in ("mi", "si"):
            raise ConfigError(f"orphan metric must be mi or si, got {self.metric}")


@dataclass(frozen=True)
class CaseListing:
    kind: str
    source_id: str
    target_id: str
    is_link: bool
    value: float
    rank: int


def _mean(records: dict, key: str) -> float | None:
    values = records[key][~np.isnan(records[key])].tolist()
    # left-to-right Python sum: np.mean's pairwise sum moves the last bits
    return sum(values) / len(values) if values else None


def information_table(records: dict, testbed: str) -> dict:
    """One aggregate row per testbed in the published layout, whose
    experiment column stays empty."""
    return {
        "experiment": "",
        "testbed": testbed,
        "h_x": _mean(records, "h_x"),
        "h_y": _mean(records, "h_y"),
        "d1": _mean(records, "d1"),
        "ci_noise": _mean(records, "loss"),   # H_pool - H(Y): printed noise column
        "d2": _mean(records, "d2"),
        "ci_loss": _mean(records, "noise"),   # H_pool - H(X): printed loss column
        "d3": _mean(records, "d3"),
        "mi": _mean(records, "mi"),
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


def _listing(kind: str, records: dict, values: list[float], ranked: list[int]) -> list[CaseListing]:
    return [
        CaseListing(kind, records["source_id"][i], records["target_id"][i],
                    bool(records["is_link"][i]), values[i], rank)
        for rank, i in enumerate(ranked, start=1)
    ]


def extreme_cases(records: dict, metric: str, k: int = 5) -> list[CaseListing]:
    """Top-k and bottom-k pairs by metric, ties broken by id order."""
    if metric not in ("loss", "noise"):
        raise ReportError(f"extreme_cases metric must be loss or noise, got {metric}")
    if k < 1:
        raise ReportError("k must be >= 1")
    values = records[metric].tolist()
    src, tgt = records["source_id"], records["target_id"]
    defined = np.flatnonzero(~np.isnan(records[metric])).tolist()
    # nsmallest(k, it, key) equals sorted(it, key=key)[:k], ties in row order
    top = heapq.nsmallest(k, defined, key=lambda i: (-values[i], src[i], tgt[i]))
    bottom = heapq.nsmallest(k, defined, key=lambda i: (values[i], src[i], tgt[i]))
    return _listing(f"max_{metric}", records, values, top) + _listing(
        f"min_{metric}", records, values, bottom)


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
    """Non-link pairs whose metric reaches the high quantile of true links;
    none when no true link has the metric defined."""
    column = records[policy.metric]
    is_link = records["is_link"]
    link_values = sorted(column[is_link & ~np.isnan(column)].tolist())
    if not link_values:
        return []
    threshold = _quantile(link_values, policy.quantile)
    values = column.tolist()
    src, tgt = records["source_id"], records["target_id"]
    hits = sorted(np.flatnonzero(~is_link & (column >= threshold)).tolist(),
                  key=lambda i: (-values[i], src[i], tgt[i]))
    return _listing("orphan_link", records, values, hits)


def null_shared_census(records: dict) -> dict[str, int]:
    null_shared = records["null_shared"]
    return {
        "count_total": int(null_shared.sum()),
        "count_links": int((null_shared & records["is_link"]).sum()),
    }


RECORD_BLOCK_ROWS = 512  # rows per write; a block's text is a few hundred KB


def _column(values) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """A record column for records.csv and for records.jsonl, each as (texts,
    index of each row's text) with one text per distinct value: ids quoted
    by csv.writer and by json.dumps, flags as true/false, floats by repr (as
    json writes them) and NaN as '' in CSV and null in JSON. Floats are told
    apart by bit pattern, so -0.0 stays apart from 0.0."""
    if isinstance(values, list):  # ids
        index = {v: i for i, v in enumerate(dict.fromkeys(values))}
        inverse = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
        return ((np.array([_csv_field(v) for v in index], dtype=object), inverse),
                (np.array([json.dumps(v) for v in index], dtype=object), inverse))
    if values.dtype == bool:
        distinct, inverse = np.unique(values, return_inverse=True)
        texts = ["true" if v else "false" for v in distinct.tolist()]
    else:
        distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
        texts = ["" if math.isnan(v) else repr(v) for v in distinct.view(np.float64).tolist()]
    csv_texts = np.array(texts, dtype=object)
    return (csv_texts, inverse), (np.where(csv_texts == "", "null", csv_texts), inverse)


def _csv_field(value: str) -> str:
    """`value` as a field of a row that records.csv's csv.writer writes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def _write_rows(path: Path, head: str, parts: list, n_rows: int) -> None:
    """Write `head`, then one line per row: the concatenation of `parts`,
    each a constant string or a column (texts, index of each row's text),
    RECORD_BLOCK_ROWS rows per write."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(head)
        for start in range(0, n_rows, RECORD_BLOCK_ROWS):
            block = slice(start, start + RECORD_BLOCK_ROWS)
            cells = [repeat(p) if isinstance(p, str) else p[0][p[1][block]].tolist() for p in parts]
            fh.write("".join(map("".join, zip(*cells))))


def write_records(records: dict, csv_path: Path, jsonl_path: Path) -> None:
    """Write records.csv (csv.writer's quoting, LF line ends) and
    records.jsonl (each line json.dumps(row, sort_keys=True)), formatting each
    distinct value of a column once and writing the rows in blocks."""
    cols = {c: _column(records[c]) for c in RECORD_COLUMNS}
    csv_line = [p for c in RECORD_COLUMNS for p in (",", cols[c][0])]
    json_line = [p for c in sorted(cols) for p in (f', "{c}": ', cols[c][1])]
    n_rows = len(records["source_id"])
    _write_rows(csv_path, ",".join(RECORD_COLUMNS) + "\n", csv_line[1:] + ["\n"], n_rows)
    _write_rows(jsonl_path, "", ["{" + json_line[0][2:], *json_line[1:], "}\n"], n_rows)


def _is_kind(value, kind: type) -> bool:
    """Whether a JSON value fits a record column of type `kind`."""
    if kind is float:
        return value is None or type(value) is float and math.isfinite(value)
    return type(value) is kind


def read_records(path: Path) -> dict:
    """Read a records.jsonl written by write_records back into records; ReportError
    unless every line maps exactly RECORD_COLUMNS to values of their type."""
    try:
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ReportError(f"cannot read records file {path}: {exc}") from exc
    kind = {c: str if c in ID_COLUMNS else bool if c in BOOL_COLUMNS else float for c in RECORD_COLUMNS}
    for r in rows:
        if not (isinstance(r, dict) and r.keys() == kind.keys()
                and all(_is_kind(v, kind[c]) for c, v in r.items())):
            raise ReportError(f"{path}: not a record of the columns {', '.join(RECORD_COLUMNS)}: {r!r}")
    columns = {c: [r[c] for r in rows] for c in RECORD_COLUMNS}
    return {c: v if kind[c] is str else np.array(v, dtype=kind[c]) for c, v in columns.items()}


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A header and rows by csv.writer: None as '', floats by repr."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_information_csv(table: dict, path: Path) -> None:
    """information_table's row under its keys."""
    _write_csv(path, list(table), [list(table.values())])


def _summary_cells(stats: SummaryStats | None) -> tuple:
    return (stats.mean, stats.std, stats.n) if stats else (None, None, 0)


def write_by_links_csv(segregated: dict[str, dict[str, SummaryStats | None]], path: Path) -> None:
    _write_csv(path, ["metric", "link", "link_std", "link_n", "nol", "nol_std", "nol_n"], (
        [metric, *_summary_cells(segregated["link"][metric]),
         *_summary_cells(segregated["non_link"][metric])]
        for metric in BY_LINKS_METRICS
    ))


def write_correlations_csv(cells, path: Path) -> None:
    _write_csv(path, ["semantic_metric", "info_metric", "pearson_r", "n"],
               ([c.metric_a, c.metric_b, c.pearson_r, c.n] for c in cells))


def write_cases_jsonl(listings: list[CaseListing], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for c in listings:
            fh.write(json.dumps(asdict(c), sort_keys=True) + "\n")


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
