"""Prediction-level utility and fairness metrics (stage 2).

`classification_metrics` scores the rule y_hat = [score >= t] at a whole
vector of thresholds from a single tally, as one ClassificationTable of
per-threshold columns; a scalar threshold is the same computation, read back
at its one position. All rates follow the weighted convention; the Theil index
is unweighted. A rate whose denominator mass is empty (<= 0) is carried as
None, and so is every field built from it, so one undefined rate does not void
the rest of the row.
"""

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import FairbenchWarning

_RATE_NAMES = ("tpr", "fpr", "tnr", "fnr")
_GROUPS = (0, 1, "all")

# the fairness metrics a sweep selects by and plots, each with its bundle field
FAIRNESS_FIELDS = {
    "SPD": "statistical_parity_difference",
    "DI": "disparate_impact",
    "EOD": "equal_opportunity_difference",
    "AOD": "average_odds_difference",
    "Theil": "theil_index",
}


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


@dataclass(frozen=True)
class ClassificationTable(ClassificationMetrics):
    """ClassificationMetrics over thresholds: each metric field, and each group
    rate, a list with one value per threshold, in input order."""

    thresholds: list = field(kw_only=True)

    def __len__(self):
        return len(self.thresholds)

    def at(self, k: int) -> ClassificationMetrics:
        """The bundle at the k-th threshold."""
        row = {f.name: getattr(self, f.name)[k] for f in fields(ClassificationMetrics) if f.name != "group_rates"}
        rates = {g: {name: column[k] for name, column in columns.items()} for g, columns in self.group_rates.items()}
        return ClassificationMetrics(**row, group_rates=rates)


def _by_prediction(tally):
    """Split mass per (..., records clearing c of the m thresholds), c = 0..m,
    into the (predicted 0, predicted 1) mass at each threshold."""
    below = np.cumsum(tally, axis=-1)[..., :-1]
    above = np.cumsum(tally[..., ::-1], axis=-1)[..., -2::-1]
    return below, above


def _ratio(num, den):
    """num / den, NaN where the denominator is empty."""
    return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=den > 0)


def disparate_impact_ratio(r0, r1):
    """Unprivileged rate r0 over privileged rate r1, with the sentinel for an empty privileged rate:
    x / 0 is inf and 0 / 0 is nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r1 == 0.0, np.where(r0 == 0.0, np.nan, np.inf), np.divide(r0, r1))


def undefined(value) -> bool:
    """Whether a metric value is undefined: None, or not finite (the DI sentinel among them)."""
    return value is None or not math.isfinite(value)


def classification_metrics(y_true, scores, threshold, protected, weights=None):
    """The metrics under y_hat = [score >= t]; a NaN score is never positive.

    A 1-D sequence of thresholds gives one ClassificationTable with a column
    per field, in input order, from one tally of how many thresholds each
    record clears; a float threshold gives that table's one row as a
    ClassificationMetrics.
    """
    thresholds = np.asarray(threshold)
    if (thresholds.dtype.kind not in "iuf" or thresholds.ndim > 1
            or not ((thresholds > 0.0) & (thresholds < 1.0)).all()):
        raise ValueError(f"threshold must be in (0,1), as a number or a 1-D sequence, got {threshold!r}")
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    protected = np.asarray(protected)
    n = len(y_true)
    if n == 0:
        raise ValueError("need at least one record")
    if not (len(scores) == len(protected) == n):
        raise ValueError("y_true, scores, protected must have equal lengths")
    if weights is not None and len(weights) != n:
        raise ValueError("weights length mismatch")
    if not (np.isin(y_true, (0, 1)).all() and np.isin(protected, (0, 1)).all()):
        raise ValueError("y_true and protected must be 0/1")

    # 1-D first: on a 0-d input some numpy versions return a 0-d inverse
    grid, position = np.unique(np.atleast_1d(thresholds).astype(float), return_inverse=True)
    m = len(grid)
    cleared = np.searchsorted(grid, scores, side="right")
    cleared[np.isnan(scores)] = 0
    bins = (protected.astype(np.int64) * 2 + y_true.astype(np.int64)) * (m + 1) + cleared
    counts = np.bincount(bins, minlength=4 * (m + 1)).reshape(2, 2, m + 1)
    mass = counts if weights is None else np.bincount(
        bins, weights=np.asarray(weights, dtype=float), minlength=4 * (m + 1)
    ).reshape(2, 2, m + 1)

    # rows: group 0, group 1, pooled; columns: thresholds
    (tn, fn), (fp, tp) = (np.moveaxis(side, 1, 0) for side in _by_prediction(mass))
    tn, fn, fp, tp = (np.vstack([c, c[0] + c[1]]) for c in (tn, fn, fp, tp))
    rates = {"tpr": _ratio(tp, tp + fn), "fpr": _ratio(fp, fp + tn),
             "tnr": _ratio(tn, fp + tn), "fnr": _ratio(fn, tp + fn)}
    tpr, fpr = rates["tpr"], rates["fpr"]
    r0, r1 = _ratio(tp + fp, tp + fp + tn + fn)[:2]
    di = disparate_impact_ratio(r0, r1)

    # Theil over the unweighted benefits b = y_hat - y + 1: 0 on a false
    # negative, 2 on a false positive, 1 elsewhere
    (_, false_neg), (false_pos, _) = (side.sum(axis=0) for side in _by_prediction(counts))
    mu = (n - false_neg + false_pos) / n
    degenerate = mu == 0.0
    if degenerate.any():
        warnings.warn("theil index degenerate: every prediction is a false negative", FairbenchWarning)
    with np.errstate(divide="ignore", invalid="ignore"):
        one, two = 1.0 / mu, 2.0 / mu
        theil = ((n - false_neg - false_pos) * (one * np.log(one)) + false_pos * (two * np.log(two))) / n
    theil = np.where(degenerate, 0.0, theil)

    def column(values):
        """Python floats in input order, None where a value is undefined (NaN)."""
        return [None if v != v else v for v in values[position].tolist()]

    rate_missing = (np.isnan(r0) | np.isnan(r1))[position].tolist()
    table = ClassificationTable(
        thresholds=grid[position].tolist(),
        balanced_accuracy=column(0.5 * (tpr[2] + rates["tnr"][2])),
        statistical_parity_difference=column(r0 - r1),
        disparate_impact=[None if missing else v for v, missing in zip(di[position].tolist(), rate_missing)],
        equal_opportunity_difference=column(tpr[0] - tpr[1]),
        average_odds_difference=column(0.5 * ((fpr[0] - fpr[1]) + (tpr[0] - tpr[1]))),
        theil_index=theil[position].tolist(),
        group_rates={g: {name: column(rates[name][row]) for name in _RATE_NAMES} for row, g in enumerate(_GROUPS)},
    )
    return table.at(0) if thresholds.ndim == 0 else table
