"""Trace-link scoring and aggregation.

ROC-AUC is the rank statistic (probability that a random positive outscores
a random negative, ties half), PR-AUC is trapezoidal over the threshold
sweep, summaries are mean[std] (sample std), and the correlation table is
plain Pearson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class EvaluationError(ValueError):
    """Raised for single-class score sets, empty inputs, or length mismatches."""


class TieGroups(NamedTuple):
    """A labelled score set as its runs of equal scores, in ascending score
    order: the size of each run and the positives in it."""
    sizes: np.ndarray
    positives: np.ndarray


def tie_groups(labels, scores) -> TieGroups:
    """The tie groups of scores from one stable ascending sort. Each array
    goes once it has been read, the inputs too when the caller holds no
    other reference to them: over a grid of pairs every one is pair-sized."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise EvaluationError("labels and scores must have equal length")
    if not np.isfinite(scores).all():
        raise EvaluationError("scores must be finite")
    n = len(scores)
    order = np.argsort(scores, kind="stable")
    scores = scores[order]
    labels = labels[order]
    del order
    first = np.ones(n, dtype=bool)
    np.not_equal(scores[1:], scores[:-1], out=first[1:])
    del scores
    starts = np.flatnonzero(first)
    del first
    positives = np.add.reduceat(labels, starts, dtype=np.intp)
    del labels
    sizes = np.empty_like(starts)  # the gaps between starts, and from the last to n
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1:] = n - starts[-1:]
    return TieGroups(sizes, positives)


def roc_auc(groups: TieGroups) -> float:
    """Mann-Whitney AUC: higher scores should mark positives. Each positive
    takes its tie group's average 1-based rank; those ranks are half-integers
    whose sums stay below 2**53, so the rank sum is exact in any order."""
    n_pos = int(groups.positives.sum())
    n_neg = int(groups.sizes.sum()) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("roc_auc needs at least one positive and one negative")
    hit = np.flatnonzero(groups.positives)
    ends = np.cumsum(groups.sizes)[hit]  # 1-based rank of each group's last score
    rank_sum = (groups.positives[hit] * ((2 * ends - groups.sizes[hit] + 1) / 2.0)).sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


AREA_BLOCK = 4096  # thresholds per step of pr_auc


def pr_auc(groups: TieGroups) -> float:
    """Trapezoidal area under the precision-recall curve, one point per tie
    group from the highest score down; the true positives at a group's end
    do not depend on the order within the group."""
    n_pos = int(groups.positives.sum())
    if n_pos == 0:
        raise EvaluationError("pr_auc needs at least one positive")
    # (recall, precision) at every distinct threshold, descending scores,
    # anchored at recall 0 with the first threshold's precision. A metric
    # over a grid of pairs has about one group per pair, so the curve is
    # walked block by block: the counts, the last point and the area carry
    # over, and the area adds left to right from 0, as a running float sum
    # would (no trapezoid is -0.0).
    positives, sizes = groups.positives[::-1], groups.sizes[::-1]
    tp = seen = 0
    recall, precision, area = 0.0, None, 0.0  # at the last point
    for start in range(0, len(sizes), AREA_BLOCK):
        block_tp = tp + np.cumsum(positives[start:start + AREA_BLOCK])
        block_seen = seen + np.cumsum(sizes[start:start + AREA_BLOCK])
        tp, seen = int(block_tp[-1]), int(block_seen[-1])
        block_precision = block_tp / block_seen
        block_recall = block_tp / n_pos
        if precision is None:
            precision = block_precision[0]
        steps = np.diff(block_recall, prepend=recall)
        steps *= np.concatenate(([precision], block_precision[:-1])) + block_precision
        steps /= 2.0
        area = np.cumsum(np.concatenate(([area], steps)))[-1]
        recall, precision = block_recall[-1], block_precision[-1]
    return float(area)


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
