"""Prediction-level utility and fairness metrics (stage 2).

All rates follow the weighted convention; the Theil index is unweighted. A
metric whose denominator is empty raises UndefinedMetricError; the bundle
builder converts that to a per-field None so one undefined rate does not void
the rest of the record.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchWarning, UndefinedMetricError

_RATE_NAMES = ("tpr", "fpr", "tnr", "fnr")


@dataclass(frozen=True)
class GroupConfusion:
    """Weighted confusion mass per group and pooled; rates computed on demand."""

    cells: dict  # (group or "all") -> dict with tp/fp/tn/fn weighted mass

    def rate(self, which: str, group="all") -> float:
        c = self.cells[group]
        num, den = {
            "tpr": (c["tp"], c["tp"] + c["fn"]),
            "fnr": (c["fn"], c["tp"] + c["fn"]),
            "fpr": (c["fp"], c["fp"] + c["tn"]),
            "tnr": (c["tn"], c["fp"] + c["tn"]),
            "prediction": (c["tp"] + c["fp"], c["tp"] + c["fp"] + c["tn"] + c["fn"]),
        }[which]
        if den <= 0:
            raise UndefinedMetricError(f"{which} undefined for group {group!r}: empty denominator")
        return float(num / den)


def group_confusion(y_true, y_pred, protected, weights=None) -> GroupConfusion:
    """Weighted confusion masses for each group and pooled."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    protected = np.asarray(protected)
    n = len(y_true)
    if not (len(y_pred) == len(protected) == n):
        raise ValueError("y_true, y_pred, protected must have equal lengths")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != n:
        raise ValueError("weights length mismatch")
    if not all(np.isin(v, (0, 1)).all() for v in (y_true, y_pred, protected)):
        raise ValueError("y_true, y_pred, protected must be 0/1")

    # one tally over bins group * 4 + truth * 2 + prediction
    bins = protected.astype(np.int64) * 4 + y_true.astype(np.int64) * 2 + y_pred.astype(np.int64)
    tally = np.bincount(bins, weights=w, minlength=8).reshape(2, 2, 2)
    cells = {g: {"tn": float(tally[g, 0, 0]), "fp": float(tally[g, 0, 1]),
                 "fn": float(tally[g, 1, 0]), "tp": float(tally[g, 1, 1])} for g in (0, 1)}
    cells["all"] = {name: cells[0][name] + cells[1][name] for name in cells[0]}
    return GroupConfusion(cells=cells)


def balanced_accuracy(confusion: GroupConfusion) -> float:
    """(TPR + TNR) / 2 on the pooled confusion."""
    return 0.5 * (confusion.rate("tpr") + confusion.rate("tnr"))


def equal_opportunity_difference(confusion: GroupConfusion) -> float:
    """Unprivileged TPR minus privileged TPR."""
    return confusion.rate("tpr", 0) - confusion.rate("tpr", 1)


def average_odds_difference(confusion: GroupConfusion) -> float:
    """Mean of the group FPR gap and the group TPR gap."""
    return 0.5 * (
        (confusion.rate("fpr", 0) - confusion.rate("fpr", 1))
        + (confusion.rate("tpr", 0) - confusion.rate("tpr", 1))
    )


def theil_index(y_true, y_pred) -> float:
    """Generalized entropy (alpha = 1) of the benefits b = y_pred - y_true + 1.

    Zero exactly when all benefits are equal; unweighted. An all-false-negative
    input has zero mean benefit and is defined as 0 with a degeneracy warning.
    """
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if len(y_true) < 1 or len(y_true) != len(y_pred):
        raise ValueError("need equal-length non-empty label vectors")
    b = y_pred - y_true + 1.0
    mu = b.mean()
    if mu == 0.0:
        warnings.warn("theil index degenerate: every prediction is a false negative", FairbenchWarning)
        return 0.0
    ratio = b / mu
    terms = np.where(ratio > 0, ratio * np.log(np.where(ratio > 0, ratio, 1.0)), 0.0)
    return float(terms.mean())


@dataclass(frozen=True)
class ClassificationMetrics:
    """Stage-2 bundle at one threshold; undefined fields carried as None."""

    balanced_accuracy: float
    statistical_parity_difference: float
    disparate_impact: float
    equal_opportunity_difference: float
    average_odds_difference: float
    theil_index: float
    group_rates: dict  # group -> {tpr, fpr, tnr, fnr}; may hold None per rate

    def fairness_value(self, metric: str):
        return {
            "SPD": self.statistical_parity_difference,
            "DI": self.disparate_impact,
            "EOD": self.equal_opportunity_difference,
            "AOD": self.average_odds_difference,
            "Theil": self.theil_index,
        }[metric]


def _carried(fn):
    try:
        return fn()
    except UndefinedMetricError:
        return None


def classification_metrics(y_true, scores, threshold, protected, weights=None) -> ClassificationMetrics:
    """Evaluate the bundle at one threshold with the rule y_hat = [score >= t]."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    scores = np.asarray(scores, dtype=float)
    y_pred = (scores >= threshold).astype(np.int64)
    conf = group_confusion(y_true, y_pred, protected, weights)

    def spd():
        return conf.rate("prediction", 0) - conf.rate("prediction", 1)

    def di():
        r1 = conf.rate("prediction", 1)
        r0 = conf.rate("prediction", 0)
        if r1 == 0.0:
            return math.nan if r0 == 0.0 else math.inf
        return r0 / r1

    rates = {}
    for g in (0, 1, "all"):
        rates[g] = {name: _carried(lambda name=name, g=g: conf.rate(name, g)) for name in _RATE_NAMES}

    return ClassificationMetrics(
        balanced_accuracy=_carried(lambda: balanced_accuracy(conf)),
        statistical_parity_difference=_carried(spd),
        disparate_impact=_carried(di),
        equal_opportunity_difference=_carried(lambda: equal_opportunity_difference(conf)),
        average_odds_difference=_carried(lambda: average_odds_difference(conf)),
        theil_index=float(theil_index(y_true, y_pred)),
        group_rates=rates,
    )
