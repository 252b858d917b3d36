"""Trace-link scoring and aggregation.

ROC-AUC is the rank statistic (probability that a random positive outscores
a random negative, ties half), PR-AUC is trapezoidal over the threshold
sweep, summaries are mean[std] (sample std), and the correlation table is
plain Pearson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EvaluationError(ValueError):
    """Raised for single-class score sets, empty inputs, or length mismatches."""


def _as_arrays(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise EvaluationError("labels and scores must have equal length")
    if not np.isfinite(scores).all():
        raise EvaluationError("scores must be finite")
    return labels, scores


def _tie_groups(sorted_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each run of equal values in a sorted array."""
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(sorted_scores)] - 1
    return starts, ends


def roc_auc(labels, scores) -> float:
    """Mann-Whitney AUC: higher scores should mark positives."""
    labels, scores = _as_arrays(labels, scores)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("roc_auc needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    starts, ends = _tie_groups(scores[order])
    ranks = np.empty(len(scores))
    # average 1-based rank of each tie group
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    rank_sum = ranks[labels].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pr_auc(labels, scores) -> float:
    """Trapezoidal area under the precision-recall curve."""
    labels, scores = _as_arrays(labels, scores)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise EvaluationError("pr_auc needs at least one positive")
    # (recall, precision) at every distinct threshold, descending scores
    order = np.argsort(-scores, kind="stable")
    _, ends = _tie_groups(scores[order])
    tp = np.cumsum(labels[order])[ends]
    precision = tp / (ends + 1)
    # Anchor at recall 0 with the first threshold's precision.
    recall = np.r_[0.0, tp / n_pos]
    precision = np.r_[precision[0], precision]
    # cumsum adds left to right, as a running float sum would
    steps = (recall[1:] - recall[:-1]) * (precision[:-1] + precision[1:]) / 2.0
    return float(np.cumsum(steps)[-1])


def pearson(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) != len(ys) or len(xs) < 2:
        raise EvaluationError("pearson needs two equal-length series of n >= 2")
    sx = xs - xs.mean()
    sy = ys - ys.mean()
    denom = math.sqrt(float(sx @ sx) * float(sy @ sy))
    if denom == 0.0:
        raise EvaluationError("pearson undefined for zero-variance input")
    return float(sx @ sy / denom)


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    std: float  # sample std, ddof=1; 0 when n == 1

    def formatted(self) -> str:
        return f"{self.mean:.2f}[{self.std:.2f}]"


def summarize(values) -> SummaryStats:
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise EvaluationError("cannot summarize an empty list")
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return SummaryStats(n=len(values), mean=float(values.mean()), std=std)


@dataclass(frozen=True)
class CorrelationCell:
    metric_a: str
    metric_b: str
    pearson_r: float | None
    n: int


def correlation_table(
    records: dict,
    semantic_metrics: list[str],
    info_metrics: list[str],
) -> list[CorrelationCell]:
    """Pearson r for every (semantic, info) metric combination, over the
    pairs where both are defined; None where r is undefined."""
    cells = []
    for sm in semantic_metrics:
        for im in info_metrics:
            both = ~(np.isnan(records[sm]) | np.isnan(records[im]))
            try:
                r = pearson(records[sm][both], records[im][both])
            except EvaluationError:  # fewer than two pairs or zero variance
                r = None
            cells.append(CorrelationCell(sm, im, r, int(both.sum())))
    return cells
