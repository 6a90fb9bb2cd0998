"""Data-level group fairness metrics (stage 1).

Weighted convention: Pr(A) = sum of weights over A / total weight. Group 0 is
unprivileged, group 1 privileged; label 1 is favorable. Consistency, label
counts, and the empirical difference are deliberately unweighted — reweighing
must move the weighted rates to parity while leaving them untouched.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchWarning, UndefinedMetricError
from ..dataset.tabular import TabularDataset, standardize

@dataclass(frozen=True)
class DatasetMetrics:
    """The seven data-level metrics in reporting order."""

    base_rate: float
    base_rate_unprivileged: float
    base_rate_privileged: float
    consistency: float
    disparate_impact: float
    statistical_parity_difference: float
    num_positives: int
    num_negatives: int
    empirical_difference: float

    def __post_init__(self):
        if self.num_positives < 0 or self.num_negatives < 0:
            raise ValueError("label counts must be non-negative")
        if not 0.0 <= self.consistency <= 1.0 + 1e-12:
            raise ValueError(f"consistency out of [0,1]: {self.consistency}")


def base_rate(ds: TabularDataset, group=None) -> float:
    """Weighted favorable-label fraction, overall or within one group."""
    if group is None:
        mask = np.ones(ds.n, dtype=bool)
    else:
        mask = ds.protected == group
        if not mask.any():
            raise UndefinedMetricError(f"base rate undefined: group {group} is empty")
    w = ds.weights[mask]
    total = w.sum()
    if total <= 0:
        raise UndefinedMetricError(f"base rate undefined: group {group} has zero total weight")
    return float(w[ds.labels[mask] == 1].sum() / total)


def _group_rates(ds):
    return base_rate(ds, group=0), base_rate(ds, group=1)


def disparate_impact(ds: TabularDataset) -> float:
    """Unprivileged / privileged weighted favorable rate.

    A zero privileged rate yields the infinity sentinel (nan when both rates
    are zero); report writers render non-finite ratios as undefined.
    """
    r0, r1 = _group_rates(ds)
    if r1 == 0.0:
        warnings.warn("disparate impact undefined: privileged favorable rate is 0", FairbenchWarning)
        return math.nan if r0 == 0.0 else math.inf
    return float(r0 / r1)


def statistical_parity_difference(ds: TabularDataset) -> float:
    """Unprivileged minus privileged weighted favorable rate."""
    r0, r1 = _group_rates(ds)
    return float(r0 - r1)


def count_labels(ds: TabularDataset):
    """Raw unweighted (positives, negatives)."""
    pos = int((ds.labels == 1).sum())
    return pos, ds.n - pos


def empirical_difference(ds: TabularDataset) -> float:
    """Smoothed differential fairness of the label.

    Dirichlet-smoothed per-group label rates p(y|s) = (count(y,s) + 0.5) /
    (count(s) + 1) on unweighted counts; returns the largest absolute log-ratio
    between the groups over both label values.
    """
    for g in (0, 1):
        if not (ds.protected == g).any():
            raise UndefinedMetricError(f"empirical difference undefined: group {g} is empty")
    worst = 0.0
    for y in (0, 1):
        rates = []
        for g in (0, 1):
            in_group = ds.protected == g
            n_g = int(in_group.sum())
            n_yg = int((ds.labels[in_group] == y).sum())
            rates.append((n_yg + 0.5) / (n_g + 1.0))
        worst = max(worst, abs(math.log(rates[0] / rates[1])))
    return float(worst)


# consistency value by _consistency_key; one entry per distinct (features, labels, k)
_CONSISTENCY_MEMO = {}


def _consistency_key(features, labels, k):
    # TabularDataset holds C-contiguous arrays, which hashlib reads without a copy
    h = hashlib.sha256(repr((features.shape, features.dtype.str, labels.dtype.str, k)).encode("utf-8"))
    h.update(features)
    h.update(labels)
    return h.digest()


def _knn_label_means_blocked(z, labels, k, block=None, extra=32):
    """Chunked GEMM distances + candidate refinement; ties still break on lowest index.

    Each block of rows fills two (rows, n) buffers allocated once: the Gram
    block, doubled in place, and (sq_i + sq_j) - 2 G, the same operations in
    the same order as the one-expression form, so the distances are
    bit-identical to it. Rows per block come from a budget of about 2 MiB per
    buffer, but never fewer than 64: skinnier products lose more in the GEMM
    than they gain in cache.
    """
    n = z.shape[0]
    if block is None:
        block = max(64, (2 << 20) // (8 * n))
    block = min(block, n)
    sq = (z * z).sum(axis=1)
    means = np.empty(n)
    cand = min(n - 1, k + extra)
    idx_all = np.arange(n)
    gram = np.empty((block, n))
    dist = np.empty((block, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        g, d2 = gram[:stop - start], dist[:stop - start]
        np.matmul(z[start:stop], z.T, out=g)
        g *= 2.0
        np.add(sq[start:stop, None], sq[None, :], out=d2)
        d2 -= g
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        part = np.sort(np.argpartition(d2, cand - 1, axis=1)[:, :cand], axis=1)
        cand_d = np.take_along_axis(d2, part, axis=1)
        # candidates are in ascending index order, so a stable distance sort
        # resolves exact ties toward the lowest index
        order = np.argsort(cand_d, axis=1, kind="stable")
        sorted_d = np.take_along_axis(cand_d, order, axis=1)
        neighbors = np.take_along_axis(part, order[:, :k], axis=1)
        means[start:stop] = labels[neighbors].mean(axis=1)
        # a tie at the k-th distance that reaches the candidate horizon may
        # continue past it; those rows get an exact full-row resolution
        spill = np.flatnonzero(sorted_d[:, k - 1] >= sorted_d[:, -1])
        for r in spill:
            full_order = np.lexsort((idx_all, d2[r]))[:k]
            means[start + r] = labels[full_order].mean()
    return means


def consistency(ds: TabularDataset, k: int = 5) -> float:
    """Agreement between each record's label and its k nearest neighbors' labels.

    1 - mean |y_i - mean(y of kNN(i))| with Euclidean distance on z-scored
    features, self excluded, distance ties broken toward the lowest row index.
    Unweighted. Values are memoized in-process by content, so a dataset seen
    before (the same original in every job, or RW's output, which keeps the
    original's features and labels) costs one hash instead of a kNN pass.
    """
    if not 1 <= k < ds.n:
        raise UndefinedMetricError(f"consistency needs 1 <= k < n, got k={k}, n={ds.n}")
    key = _consistency_key(ds.features, ds.labels, k)
    if key not in _CONSISTENCY_MEMO:
        z = standardize(ds)[0].features
        labels = ds.labels.astype(np.float64)
        means = _knn_label_means_blocked(z, labels, k)
        _CONSISTENCY_MEMO[key] = float(1.0 - np.abs(labels - means).mean())
    return _CONSISTENCY_MEMO[key]


def remember_consistency(ds: TabularDataset, value: float, k: int = 5):
    """Memoize a consistency value measured for `ds`'s content elsewhere, such as in another process."""
    _CONSISTENCY_MEMO[_consistency_key(ds.features, ds.labels, k)] = value


def dataset_metrics(ds: TabularDataset, consistency_k: int = 5) -> DatasetMetrics:
    """The stage-1 bundle, computed in one pass over the dataset."""
    pos, neg = count_labels(ds)
    return DatasetMetrics(
        base_rate=base_rate(ds),
        base_rate_unprivileged=base_rate(ds, group=0),
        base_rate_privileged=base_rate(ds, group=1),
        consistency=consistency(ds, k=consistency_k),
        disparate_impact=disparate_impact(ds),
        statistical_parity_difference=statistical_parity_difference(ds),
        num_positives=pos,
        num_negatives=neg,
        empirical_difference=empirical_difference(ds),
    )
