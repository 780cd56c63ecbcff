"""Confusion counts and the six attack evaluation metrics.

The white-box attack counts its confusion cells from a member mask
(``whitebox.rank_scores``); this module derives the metrics from them.
Success rate is correct member predictions over true member count, which
equals recall under the top-N decision rule.  A 0/0 ratio is reported as
0.0 rather than emitted as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ConfigError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsRow:
    iteration: int
    success_rate: float
    accuracy: float
    precision: float
    recall: float
    fpr: float
    f1: float


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def compute_metrics(c: ConfusionCounts, iteration: int) -> MetricsRow:
    """Derive the six metrics from raw counts; all-zero counts are an error."""
    if c.total == 0:
        raise ConfigError("cannot compute metrics from all-zero counts")
    recall = _ratio(c.tp, c.tp + c.fn)
    precision = _ratio(c.tp, c.tp + c.fp)
    fpr = _ratio(c.fp, c.fp + c.tn)
    accuracy = (c.tp + c.tn) / c.total
    # count form of 2pr/(p+r); exact integer operands keep the fp == fn case
    # bitwise equal to precision and recall
    f1 = _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn)
    return MetricsRow(
        iteration=iteration,
        success_rate=recall,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        fpr=fpr,
        f1=f1,
    )
