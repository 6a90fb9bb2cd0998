"""Threshold sweep over the 99-point grid and composite optimal-threshold choice.

A sweep is one ClassificationTable per split: a column per metric, a row per
grid threshold. Selection and the writers read its columns.
"""

import math
from dataclasses import dataclass

from ..errors import FairbenchError
from ..metrics.classification import (
    FAIRNESS_FIELDS, ClassificationMetrics, ClassificationTable, classification_metrics, undefined)

FAIRNESS_METRICS = tuple(FAIRNESS_FIELDS)


def default_grid():
    """Thresholds 0.01 .. 0.99 in steps of 0.01."""
    return tuple(i / 100.0 for i in range(1, 100))


@dataclass(frozen=True)
class SweepResult:
    """The validation and test sweeps of one arm, and the threshold chosen on validation."""

    arm: str
    validation: ClassificationTable
    test: ClassificationTable
    optimal_threshold: float
    selection_metric: str
    split_hash: str

    @property
    def test_at_optimal(self) -> ClassificationMetrics:
        return self.test.at(self.test.thresholds.index(self.optimal_threshold))


def sweep_thresholds(y_true, scores, protected, weights=None) -> ClassificationTable:
    """The table over the grid, from one classification_metrics call, its rates weighted by `weights`;
    undefined metrics ride along as None."""
    return classification_metrics(y_true, scores, default_grid(), protected, weights)


def _deviation(value, metric_name: str):
    if undefined(value):
        return None
    if metric_name == "DI":
        return abs(1.0 - value)
    if metric_name == "Theil":
        return value
    return abs(value)


def select_optimal_threshold(table: ClassificationTable, fairness_metric: str) -> float:
    """Maximize balanced accuracy minus the fairness deviation over the table's thresholds.

    The deviation is |value| for SPD/EOD/AOD, |1 - value| for DI, and the raw
    value for Theil, so the composite reduces to the balanced-accuracy argmax
    when the fairness series is identically zero. Thresholds with undefined
    constituents are skipped; ties go to the earlier threshold.
    """
    if fairness_metric not in FAIRNESS_METRICS:
        raise FairbenchError(f"unknown selection metric {fairness_metric!r}; expected one of {FAIRNESS_METRICS}")
    if not len(table):
        raise FairbenchError("cannot select a threshold from an empty sweep")
    best_t, best_score = None, -math.inf
    fairness = getattr(table, FAIRNESS_FIELDS[fairness_metric])
    for t, accuracy, value in zip(table.thresholds, table.balanced_accuracy, fairness):
        dev = _deviation(value, fairness_metric)
        if accuracy is None or dev is None:
            continue
        score = accuracy - dev
        if score > best_score:
            best_t, best_score = t, score
    if best_t is None:
        raise FairbenchError("every threshold had an undefined constituent metric")
    return best_t
