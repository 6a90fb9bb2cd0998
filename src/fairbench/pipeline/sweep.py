"""Threshold sweep over the 99-point grid and composite optimal-threshold choice."""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchError
from ..metrics.classification import ClassificationMetrics, classification_metrics

FAIRNESS_METRICS = ("SPD", "DI", "EOD", "AOD", "Theil")


def default_grid():
    """Thresholds 0.01 .. 0.99 in steps of 0.01."""
    return tuple(i / 100.0 for i in range(1, 100))


@dataclass(frozen=True)
class SweepRecord:
    threshold: float
    metrics: ClassificationMetrics


@dataclass(frozen=True)
class SweepResult:
    """Per-threshold records for the validation and test splits of one arm."""

    arm: str
    validation: tuple  # SweepRecords
    test: tuple
    optimal_threshold: float
    selection_metric: str
    test_at_optimal: ClassificationMetrics
    split_hash: str

    def records(self, split: str):
        return {"validation": self.validation, "test": self.test}[split]


def sweep_thresholds(y_true, scores, protected):
    """One SweepRecord per grid threshold; undefined metrics ride along as None."""
    scores = np.asarray(scores, dtype=float)
    return tuple(
        SweepRecord(t, classification_metrics(y_true, scores, t, protected)) for t in default_grid()
    )


def _deviation(metrics: ClassificationMetrics, metric_name: str):
    value = metrics.fairness_value(metric_name)
    if value is None or not math.isfinite(value):
        return None
    if metric_name == "DI":
        return abs(1.0 - value)
    if metric_name == "Theil":
        return value
    return abs(value)


def select_optimal_threshold(records, fairness_metric: str) -> float:
    """Maximize balanced accuracy minus the fairness deviation over the grid.

    The deviation is |value| for SPD/EOD/AOD, |1 - value| for DI, and the raw
    value for Theil, so the composite reduces to the balanced-accuracy argmax
    when the fairness series is identically zero. Thresholds with undefined
    constituents are skipped; ties go to the lower threshold.
    """
    if fairness_metric not in FAIRNESS_METRICS:
        raise FairbenchError(f"unknown selection metric {fairness_metric!r}; expected one of {FAIRNESS_METRICS}")
    if not records:
        raise FairbenchError("cannot select a threshold from an empty sweep")
    best_t, best_score = None, -math.inf
    for rec in records:
        if rec.metrics.balanced_accuracy is None:
            continue
        dev = _deviation(rec.metrics, fairness_metric)
        if dev is None:
            continue
        score = rec.metrics.balanced_accuracy - dev
        if score > best_score:
            best_t, best_score = rec.threshold, score
    if best_t is None:
        raise FairbenchError("every threshold had an undefined constituent metric")
    return best_t
