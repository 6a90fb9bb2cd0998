"""Immutable encoded dataset value: features, binary labels, binary group, weights."""

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import FairbenchError


@dataclass(frozen=True)
class TabularDataset:
    """Encoded tabular data.

    features: (n, d) float64 matrix (one-hot categoricals, raw numerics).
    labels, protected: length-n vectors in {0, 1} (1 = favorable / privileged).
    weights: length-n non-negative instance weights with positive total.
    """

    features: np.ndarray
    labels: np.ndarray
    protected: np.ndarray
    weights: np.ndarray
    feature_names: tuple
    provenance: str = ""

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        protected = np.asarray(self.protected, dtype=np.int64).ravel()
        weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if feats.ndim != 2:
            raise FairbenchError("features must be a 2-D matrix")
        n, d = feats.shape
        if n < 1 or d < 1:
            raise FairbenchError(f"need at least one row and one feature column, got {feats.shape}")
        for name, vec in (("labels", labels), ("protected", protected), ("weights", weights)):
            if vec.shape != (n,):
                raise FairbenchError(f"{name} has length {vec.shape[0]}, expected {n}")
        if not np.isin(labels, (0, 1)).all():
            raise FairbenchError("labels must be 0/1")
        if not np.isin(protected, (0, 1)).all():
            raise FairbenchError("protected must be 0/1")
        if not np.isfinite([feats.min(), feats.max()]).all():  # NaN and +-inf reach the min or max; no n x d mask
            raise FairbenchError("features must be finite")
        if (weights < 0).any() or not np.isfinite(weights).all() or weights.sum() <= 0:
            raise FairbenchError("weights must be non-negative and finite with positive total")
        names = tuple(str(x) for x in self.feature_names)
        if len(names) != d:
            raise FairbenchError(f"{len(names)} feature names for {d} columns")
        for arr in (feats, labels, protected, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "protected", protected)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def replace(self, **kwargs) -> "TabularDataset":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **kwargs)

    def take(self, indices) -> "TabularDataset":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=np.int64)
        return TabularDataset(
            self.features[idx],
            self.labels[idx],
            self.protected[idx],
            self.weights[idx],
            self.feature_names,
            self.provenance,
        )

    def with_provenance_step(self, step: str) -> "TabularDataset":
        """Append a lineage step to the provenance tag."""
        tag = f"{self.provenance}|{step}" if self.provenance else step
        return self.replace(provenance=tag)


def datasets_equal(a: TabularDataset, b: TabularDataset) -> bool:
    """Field-by-field equality with bit-identical reals: 0.0 and -0.0 differ."""
    return (
        a.feature_names == b.feature_names
        and a.provenance == b.provenance
        and a.features.shape == b.features.shape
        and all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
                for name in ("features", "labels", "protected", "weights"))
    )


def standardize(ds: TabularDataset):
    """Z-score the feature matrix (population std); constant columns become zeros.

    Returns (standardized dataset, means, scales); scales are 1 where a column
    is constant so the transform stays total.
    """
    means = ds.features.mean(axis=0)
    scales = ds.features.std(axis=0)
    scales = np.where(scales > 0, scales, 1.0)
    out = ds.replace(features=(ds.features - means) / scales)
    return out, means, scales


def apply_standardization(ds: TabularDataset, means, scales) -> TabularDataset:
    """Apply a previously fitted standardization to another dataset."""
    return ds.replace(features=(ds.features - np.asarray(means)) / np.asarray(scales))
