"""Weight-aware logistic regression trained by full-batch gradient descent.

Deterministic given the config: zero initialization, backtracking line search,
stop on a gradient max-norm tolerance. The intercept is unregularized and the
weighted loss is normalized by the total weight, so scaling every instance
weight by a constant leaves the fit unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from ..dataset.tabular import TabularDataset

_SCORE_CLIP = 1e-15


@dataclass(frozen=True)
class LogRegConfig:
    l2: float = 1e-4
    max_iter: int = 5000
    tol: float = 1e-6
    standardize: bool = True

    def __post_init__(self):
        if self.l2 < 0:
            raise FitError("L2 strength must be non-negative")
        if self.tol <= 0:
            raise FitError("gradient tolerance must be positive")


@dataclass(frozen=True)
class TrainedModel:
    coefficients: np.ndarray
    intercept: float
    feature_means: np.ndarray
    feature_scales: np.ndarray
    final_loss: float
    final_gradient_norm: float
    iterations: int

    def __post_init__(self):
        if not np.isfinite(self.coefficients).all() or not math.isfinite(self.intercept):
            raise FitError("fitted coefficients must be finite")
        if (np.asarray(self.feature_scales) <= 0).any():
            raise FitError("standardization scales must be positive")


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loss_and_gradient(x, y, w, coef, intercept, l2):
    """Weighted regularized negative log-likelihood and its gradient."""
    z = x @ coef + intercept
    p = _sigmoid(z)
    # log-loss via logaddexp for stability: -[y log p + (1-y) log(1-p)]
    ll = np.logaddexp(0.0, z) - y * z
    total_w = w.sum()
    loss = float((w * ll).sum() / total_w + 0.5 * l2 * (coef @ coef))
    resid = w * (p - y) / total_w
    grad_coef = x.T @ resid + l2 * coef
    grad_b = float(resid.sum())
    return loss, grad_coef, grad_b


def train_logreg(train: TabularDataset, cfg: LogRegConfig = LogRegConfig(), init_coef=None) -> TrainedModel:
    """Fit on a training split; requires both label values present."""
    y = train.labels.astype(np.float64)
    if len(np.unique(train.labels)) < 2:
        raise FitError("training labels contain a single class")
    w = train.weights / train.weights.sum()  # scale invariance up front
    if cfg.standardize:
        # weight-aware so that duplicating a record and doubling its weight
        # produce the same standardization, hence the same fit
        means = w @ train.features
        variances = w @ (train.features - means) ** 2
        scales = np.where(variances > 0, np.sqrt(variances), 1.0)
    else:
        means = np.zeros(train.dim)
        scales = np.ones(train.dim)
    x = (train.features - means) / scales

    coef = np.zeros(train.dim) if init_coef is None else np.asarray(init_coef, dtype=float).copy()
    intercept = 0.0
    loss, grad_coef, grad_b = loss_and_gradient(x, y, w, coef, intercept, cfg.l2)
    if not math.isfinite(loss):
        raise FitError(f"non-finite loss at initialization: {loss}")

    step = 1.0
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        gnorm = max(float(np.abs(grad_coef).max()), abs(grad_b))
        if gnorm <= cfg.tol:
            iterations -= 1
            break
        gsq = float(grad_coef @ grad_coef) + grad_b * grad_b
        trial = step
        accepted = False
        for _ in range(60):
            cand_coef = coef - trial * grad_coef
            cand_b = intercept - trial * grad_b
            cand_loss, cand_gc, cand_gb = loss_and_gradient(x, y, w, cand_coef, cand_b, cfg.l2)
            if not math.isfinite(cand_loss):
                raise FitError(f"non-finite loss during fit: {cand_loss}")
            if cand_loss <= loss - 1e-4 * trial * gsq:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        coef, intercept = cand_coef, cand_b
        loss, grad_coef, grad_b = cand_loss, cand_gc, cand_gb
        step = trial * 2.0

    return TrainedModel(
        coefficients=coef,
        intercept=float(intercept),
        feature_means=means,
        feature_scales=scales,
        final_loss=loss,
        final_gradient_norm=max(float(np.abs(grad_coef).max()), abs(grad_b)),
        iterations=iterations,
    )


def predict_scores(model: TrainedModel, ds: TabularDataset) -> np.ndarray:
    """Sigmoid scores in (0, 1) using the training standardization."""
    if ds.dim != len(model.coefficients):
        raise FitError(f"dimension mismatch: model d={len(model.coefficients)}, dataset d={ds.dim}")
    x = (ds.features - model.feature_means) / model.feature_scales
    scores = _sigmoid(x @ model.coefficients + model.intercept)
    return np.clip(scores, _SCORE_CLIP, 1.0 - _SCORE_CLIP)
