"""Weight-aware logistic regression trained by damped Newton (IRLS).

Deterministic given the config: zero initialization, one Cholesky solve of the
Hessian per step, Armijo backtracking on the Newton decrement, stop on a
gradient max-norm tolerance. The intercept is unregularized and the weighted
loss is normalized by the total weight, so scaling every instance weight by a
constant leaves the fit unchanged.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchWarning, FitError
from ..dataset.tabular import TabularDataset
from ..util import Settings, setting

_SCORE_CLIP = 1e-15
_LOSS_ROUNDING = 16 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class LogRegConfig(Settings):
    bound_error = FitError
    l2: float = setting(1e-4, least=0, below=math.inf)
    max_iter: int = setting(5000, least=0)
    tol: float = setting(1e-6, above=0, below=math.inf)
    standardize: bool = True


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


def _cholesky(h):
    """Lower Cholesky factor of h after the smallest shift, by decades, that lets it factor.

    A shift is needed only when h is singular: L2 strength 0 with a constant
    column, duplicated columns or a one-hot block collinear with the intercept.
    """
    eye = np.eye(len(h))
    for shift in (0.0, *(float(h.diagonal().max()) * 10.0 ** np.arange(-14, 1))):
        try:
            return np.linalg.cholesky(h + shift * eye)
        except np.linalg.LinAlgError:
            continue
    raise FitError("Hessian does not factor even after a diagonal shift")


def _cholesky_solve(lower, b):
    """The x with lower @ lower.T @ x = b, by forward then back substitution.

    numpy has no triangular solve. Its general solve would factor again, and
    from 100 unknowns OpenBLAS runs that threaded: with another process on the
    second core, two such solves took 15 ms a step, not 0.4. Batch jobs run
    with one BLAS thread, so this now matters only to direct callers; the
    loops stay because `np.linalg.solve` would change the fits' last bits.
    """
    y = np.empty_like(b)
    for i in range(len(b)):
        y[i] = (b[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    x = np.empty_like(b)
    for i in reversed(range(len(b))):
        x[i] = (y[i] - lower[i + 1:, i] @ x[i + 1:]) / lower[i, i]
    return x


def _newton_step(x, w, p, l2, grad_coef, grad_b):
    """Solve H step = -g for the (d+1)x(d+1) Hessian at scores p.

    The feature block is one symmetric product z.T @ z, which numpy hands to
    BLAS syrk; the intercept row and corner come from x.T @ s and s.sum(), so
    no copy of x with a ones column is built.
    """
    d = x.shape[1]
    s = w * p * (1.0 - p)
    z = x * np.sqrt(s)[:, None]
    h = np.empty((d + 1, d + 1))
    h[:d, :d] = z.T @ z
    h[:d, :d][np.diag_indices(d)] += l2
    h[d, :d] = h[:d, d] = x.T @ s
    h[d, d] = s.sum()
    step = _cholesky_solve(_cholesky(h), -np.append(grad_coef, grad_b))
    return step[:d], float(step[d])


def train_logreg(train: TabularDataset, cfg: LogRegConfig = LogRegConfig()) -> TrainedModel:
    """Fit on a training split; requires both label values present.

    Warns with a FairbenchWarning when it stops with the gradient above `tol`:
    after `max_iter` Newton steps, or when the line search finds no decrease.
    """
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

    coef = np.zeros(train.dim)
    intercept = 0.0
    loss, grad_coef, grad_b = loss_and_gradient(x, y, w, coef, intercept, cfg.l2)
    if not math.isfinite(loss):
        raise FitError(f"non-finite loss at initialization: {loss}")

    iterations = 0
    gnorm = max(float(np.abs(grad_coef).max()), abs(grad_b))
    while gnorm > cfg.tol and iterations < cfg.max_iter:
        p = _sigmoid(x @ coef + intercept)
        step_coef, step_b = _newton_step(x, w, p, cfg.l2, grad_coef, grad_b)
        decrement = float(grad_coef @ step_coef) + grad_b * step_b
        trial = 1.0
        for _ in range(60):
            cand_coef = coef + trial * step_coef
            cand_b = intercept + trial * step_b
            cand_loss, cand_gc, cand_gb = loss_and_gradient(x, y, w, cand_coef, cand_b, cfg.l2)
            if not math.isfinite(cand_loss):
                raise FitError(f"non-finite loss during fit: {cand_loss}")
            cand_gnorm = max(float(np.abs(cand_gc).max()), abs(cand_gb))
            if cand_loss <= loss + 1e-4 * trial * decrement:
                break
            # near the optimum a step's decrease is below the loss's rounding
            # error; there a step that shrinks the gradient is accepted
            if abs(cand_loss - loss) <= _LOSS_ROUNDING * abs(loss) and cand_gnorm < gnorm:
                break
            trial *= 0.5
        else:
            break
        coef, intercept = cand_coef, cand_b
        loss, grad_coef, grad_b, gnorm = cand_loss, cand_gc, cand_gb, cand_gnorm
        iterations += 1
    if gnorm > cfg.tol:
        stop = "max_iter reached" if iterations == cfg.max_iter else "line search found no decrease"
        warnings.warn(f"logreg did not converge: {stop} after {iterations} of max_iter={cfg.max_iter} "
                      f"Newton steps; gradient max-norm {gnorm:.4g} > tol {cfg.tol:.4g}", FairbenchWarning)

    return TrainedModel(
        coefficients=coef,
        intercept=float(intercept),
        feature_means=means,
        feature_scales=scales,
        final_loss=loss,
        final_gradient_norm=gnorm,
        iterations=iterations,
    )


def predict_scores(model: TrainedModel, ds: TabularDataset) -> np.ndarray:
    """Sigmoid scores in (0, 1) using the training standardization."""
    if ds.dim != len(model.coefficients):
        raise FitError(f"dimension mismatch: model d={len(model.coefficients)}, dataset d={ds.dim}")
    x = (ds.features - model.feature_means) / model.feature_scales
    scores = _sigmoid(x @ model.coefficients + model.intercept)
    return np.clip(scores, _SCORE_CLIP, 1.0 - _SCORE_CLIP)
