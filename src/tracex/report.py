"""Interpretive report surfaces over the per-pair record stream.

Tables and case listings are pure views of the record rows; emission is
deterministic byte-for-byte given identical inputs. Column naming keeps
both conventions from the published-table layout: `ci_noise` carries
H_pool - H(Y) (semantically the loss) and `ci_loss` carries H_pool - H(X)
(semantically the noise), so mi + ci_noise = h_x and mi + ci_loss = h_y.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from tracex.evaluation import SummaryStats, segregate_by_label, summarize

RECORD_COLUMNS = [
    "source_id", "target_id", "is_link",
    "h_x", "h_y", "h_pool", "mi", "loss", "noise", "si", "sx", "d1", "null_shared",
    "wmd", "scm", "cos", "euc", "wmd_sim", "cos_sim", "wmd_relaxed",
]

BY_LINKS_METRICS = ["scm", "wmd_sim", "cos", "euc", "h_x", "h_y", "ci_noise", "ci_loss", "mi", "si", "sx"]


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class OrphanPolicy:
    quantile: float = 0.99
    metric: str = "mi"

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ReportError(f"quantile must be inside (0, 1), got {self.quantile}")
        if self.metric not in ("mi", "si"):
            raise ReportError(f"orphan metric must be mi or si, got {self.metric}")


@dataclass(frozen=True)
class CaseListing:
    kind: str
    source_id: str
    target_id: str
    is_link: bool
    value: float
    rank: int


def _mean(rows: list[dict], key: str) -> float | None:
    values = [r[key] for r in rows if r.get(key) is not None]
    return sum(values) / len(values) if values else None


def information_table(rows: list[dict], testbed: str, experiment: str = "") -> dict:
    """One aggregate row per (experiment, testbed) in the published layout."""
    si = summarize([r["si"] for r in rows]) if rows else None
    sx = summarize([r["sx"] for r in rows]) if rows else None
    mean_loss = _mean(rows, "loss")
    mean_noise = _mean(rows, "noise")
    return {
        "experiment": experiment,
        "testbed": testbed,
        "h_x": _mean(rows, "h_x"),
        "h_y": _mean(rows, "h_y"),
        "d1": _mean(rows, "d1"),
        "ci_noise": mean_loss,   # H_pool - H(Y): printed noise column
        "d2": _mean(rows, "d2"),
        "ci_loss": mean_noise,   # H_pool - H(X): printed loss column
        "d3": _mean(rows, "d3"),
        "mi": _mean(rows, "mi"),
        "si": si.formatted() if si else "",
        "sx": sx.formatted() if sx else "",
    }


def by_links_table(rows: list[dict]) -> dict[str, dict[str, SummaryStats | None]]:
    """Segregated summaries with Link / NoL column pairs per metric."""
    widened = [
        {**r, "ci_noise": r.get("loss"), "ci_loss": r.get("noise")}
        for r in rows
    ]
    return segregate_by_label(widened, BY_LINKS_METRICS)


def extreme_cases(rows: list[dict], metric: str, k: int = 5) -> list[CaseListing]:
    """Top-k and bottom-k pairs by metric, ties broken by id order."""
    if metric not in ("loss", "noise"):
        raise ReportError(f"extreme_cases metric must be loss or noise, got {metric}")
    if k < 1:
        raise ReportError("k must be >= 1")
    defined = [r for r in rows if r.get(metric) is not None]
    by_id = sorted(defined, key=lambda r: (r["source_id"], r["target_id"]))
    top = sorted(by_id, key=lambda r: -r[metric])[:k]
    bottom = sorted(by_id, key=lambda r: r[metric])[:k]
    listings = [
        CaseListing(f"max_{metric}", r["source_id"], r["target_id"], r["is_link"], r[metric], i + 1)
        for i, r in enumerate(top)
    ]
    listings += [
        CaseListing(f"min_{metric}", r["source_id"], r["target_id"], r["is_link"], r[metric], i + 1)
        for i, r in enumerate(bottom)
    ]
    return listings


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile over a pre-sorted list."""
    if not sorted_values:
        raise ReportError("quantile of empty list")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_values[lo]
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def detect_orphans(rows: list[dict], policy: OrphanPolicy = OrphanPolicy()) -> list[CaseListing]:
    """Non-link pairs whose metric reaches the high quantile of true links."""
    link_values = sorted(
        r[policy.metric] for r in rows if r["is_link"] and r.get(policy.metric) is not None
    )
    if not link_values:
        raise ReportError("orphan detection needs at least one true link with a defined metric")
    threshold = _quantile(link_values, policy.quantile)
    candidates = [
        r for r in rows
        if not r["is_link"] and r.get(policy.metric) is not None and r[policy.metric] >= threshold
    ]
    candidates.sort(key=lambda r: (-r[policy.metric], r["source_id"], r["target_id"]))
    return [
        CaseListing("orphan_link", r["source_id"], r["target_id"], False, r[policy.metric], i + 1)
        for i, r in enumerate(candidates)
    ]


def null_shared_census(rows: list[dict]) -> dict[str, int]:
    total = sum(1 for r in rows if r["null_shared"])
    links = sum(1 for r in rows if r["null_shared"] and r["is_link"])
    return {"count_total": total, "count_links": links}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(rows: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        for r in rows:
            writer.writerow([_fmt(r.get(c)) for c in RECORD_COLUMNS])


def write_records_jsonl(rows: list[dict], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps({c: r.get(c) for c in RECORD_COLUMNS}, sort_keys=True) + "\n")


def write_information_csv(table_rows: list[dict], path: Path) -> None:
    columns = ["experiment", "testbed", "h_x", "h_y", "d1", "ci_noise", "d2", "ci_loss", "d3", "mi", "si", "sx"]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in table_rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def write_by_links_csv(segregated: dict[str, dict[str, SummaryStats | None]], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "link", "link_std", "link_n", "nol", "nol_std", "nol_n"])
        for metric in BY_LINKS_METRICS:
            link = segregated["link"].get(metric)
            nol = segregated["non_link"].get(metric)
            writer.writerow([
                metric,
                _fmt(link.mean if link else None), _fmt(link.std if link else None),
                link.n if link else 0,
                _fmt(nol.mean if nol else None), _fmt(nol.std if nol else None),
                nol.n if nol else 0,
            ])


def write_correlations_csv(cells, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["semantic_metric", "info_metric", "pearson_r", "n"])
        for cell in cells:
            writer.writerow([cell.metric_a, cell.metric_b, _fmt(cell.pearson_r), cell.n])


def write_cases_jsonl(listings: list[CaseListing], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for c in listings:
            fh.write(json.dumps(asdict(c), sort_keys=True) + "\n")


def scatter_svg(
    rows: list[dict],
    x_key: str = "wmd_sim",
    y_key: str = "mi",
    color_key: str = "loss",
    width: int = 640,
    height: int = 480,
) -> str:
    """Self-contained SVG scatter: x=similarity, y=MI, color=loss or noise."""
    axis_labels = {
        "wmd_sim": "WMD similarity", "cos_sim": "COS similarity", "scm": "SCM similarity",
        "mi": "Mutual Information (bits)", "loss": "Loss (bits)", "noise": "Noise (bits)",
    }
    pts = [
        (r[x_key], r[y_key], r[color_key])
        for r in rows
        if r.get(x_key) is not None and r.get(y_key) is not None and r.get(color_key) is not None
    ]
    margin = 50
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="13">'
        f'{axis_labels.get(x_key, x_key)}</text>',
        f'<text x="16" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {height // 2})">{axis_labels.get(y_key, y_key)}</text>',
        f'<text x="{width - margin}" y="{margin - 20}" text-anchor="end" font-size="12">'
        f'color: {axis_labels.get(color_key, color_key)}</text>',
    ]
    if pts:
        xs, ys, cs = zip(*pts)
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        c_lo, c_hi = min(cs), max(cs)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        c_span = (c_hi - c_lo) or 1.0
        for x, y, c in pts:
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
