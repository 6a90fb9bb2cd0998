"""Fair representation learning through a small set of prototype points.

Inputs are soft-assigned to K prototypes via a softmax over negative squared
distances; the objective balances group parity of the prototype assignments,
reconstruction fidelity, and label fidelity. Expects z-scored features (the
pipeline standardizes before fitting).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchWarning, FitError
from ..dataset.tabular import TabularDataset

_PROB_CLIP = 1e-6


@dataclass(frozen=True)
class LfrModel:
    prototypes: np.ndarray       # (K, d)
    label_weights: np.ndarray    # (K,) in [0, 1]
    weight_parity: float         # A_z
    weight_reconstruction: float # A_x
    weight_label: float          # A_y
    objective_trace: tuple

    def __post_init__(self):
        if self.prototypes.shape[0] < 2:
            raise FitError("need at least 2 prototypes")
        if len(self.objective_trace) >= 2 and self.objective_trace[-1] > self.objective_trace[0]:
            raise FitError("objective trace increased; fit is invalid")


def _soft_assignments(x, prototypes):
    """Softmax over -||x - v_k||^2, row-wise, numerically stabilized.

    -||x - v||^2 = 2 x.v - ||x||^2 - ||v||^2 comes from one (n, d) x (d, K)
    matmul, without the (n, K, d) difference tensor. ||x||^2 is the same for
    every prototype of a row and the softmax is shift-invariant per row, so it
    is left out. The cancellation error is about 1e-16 * (||x|| + ||v||)^2,
    small on the z-scored features the pipeline passes in.
    """
    a = x @ prototypes.T
    a *= 2.0
    a -= (prototypes * prototypes).sum(axis=1)
    a -= a.max(axis=1, keepdims=True)
    e = np.exp(a, out=a)
    return e / e.sum(axis=1, keepdims=True)


def _groups(s):
    """The parity term's per-fit constants: the group-1 column mask and each group's rows."""
    return (s == 1)[:, None], np.flatnonzero(s == 1), np.flatnonzero(s == 0)


def _forward(x, y, groups, prototypes, label_weights, a_z, a_x, a_y):
    """Objective, its three components, and the intermediates its gradient needs.

    The intermediates are the soft assignments m, the group-mean gap of m, the
    residual m v - x, and the raw and clipped label predictions.
    """
    _, rows1, rows0 = groups
    n = x.shape[0]
    m = _soft_assignments(x, prototypes)
    gap = m[rows1].mean(axis=0) - m[rows0].mean(axis=0)
    resid = m @ prototypes
    resid -= x
    yhat_raw = m @ label_weights
    yhat = np.clip(yhat_raw, _PROB_CLIP, 1.0 - _PROB_CLIP)
    l_parity = np.abs(gap).sum()
    l_recon = (resid ** 2).sum() / n
    l_label = -(y * np.log(yhat) + (1.0 - y) * np.log(1.0 - yhat)).mean()
    objective = a_z * l_parity + a_x * l_recon + a_y * l_label
    return objective, (l_parity, l_recon, l_label), (m, gap, resid, yhat_raw, yhat)


def _gradients(x, y, groups, prototypes, label_weights, a_z, a_x, a_y, intermediates):
    """Analytic gradients at the point whose `_forward` gave `intermediates`."""
    in1, rows1, rows0 = groups
    m, gap, resid, yhat_raw, yhat = intermediates
    n = x.shape[0]

    # dL/dM for each component
    sign_parity = np.sign(gap)
    g_parity = np.where(in1, sign_parity / len(rows1), -sign_parity / len(rows0))

    g_recon = (2.0 / n) * (resid @ prototypes.T)

    clipped = (yhat_raw < _PROB_CLIP) | (yhat_raw > 1.0 - _PROB_CLIP)
    dldy = (yhat - y) / (yhat * (1.0 - yhat)) / n
    dldy[clipped] = 0.0
    g_label = dldy[:, None] * label_weights[None, :]

    g_total = a_z * g_parity + a_x * g_recon + a_y * g_label

    # back through the softmax: H = M * (G - sum_k G M), then through -||x-v||^2
    row_dot = (g_total * m).sum(axis=1, keepdims=True)
    h = m * (g_total - row_dot)
    grad_v = 2.0 * (h.T @ x - h.sum(axis=0)[:, None] * prototypes)
    # direct dependence of the reconstruction term on the prototypes
    grad_v += a_x * (2.0 / n) * (m.T @ resid)

    grad_w = a_y * (m.T @ dldy)
    return grad_v, grad_w


def lfr_objective(x, y, s, prototypes, label_weights, a_z, a_x, a_y):
    """Objective value and its three components at the given parameters."""
    objective, parts, _ = _forward(x, y, _groups(s), prototypes, label_weights, a_z, a_x, a_y)
    return objective, parts


def lfr_gradients(x, y, s, prototypes, label_weights, a_z, a_x, a_y):
    """Analytic gradients of the objective w.r.t. prototypes and label weights."""
    groups = _groups(s)
    *_, intermediates = _forward(x, y, groups, prototypes, label_weights, a_z, a_x, a_y)
    return _gradients(x, y, groups, prototypes, label_weights, a_z, a_x, a_y, intermediates)


def lfr_fit(ds: TabularDataset, n_prototypes: int = 10, a_z: float = 50.0,
            a_x: float = 0.01, a_y: float = 1.0, seed: int = 0,
            max_iter: int = 5000, tol: float = 1e-6) -> LfrModel:
    """Projected gradient descent with backtracking; label weights clamped to [0,1].

    Prototypes start at K records sampled by seed. Stops when the relative
    objective decrease falls below `tol` or after `max_iter` accepted steps;
    the latter warns that the fit did not converge. Each candidate of the line
    search takes one forward pass, and the accepted one's gives the next
    gradient.
    """
    x = ds.features
    y = ds.labels.astype(np.float64)
    s = ds.protected
    n = x.shape[0]
    if n_prototypes >= n:
        raise FitError(f"need fewer prototypes than rows (K={n_prototypes}, n={n})")
    if n_prototypes < 2:
        raise FitError("need at least 2 prototypes")
    if not ((s == 0).any() and (s == 1).any()):
        raise FitError("both groups must be present")

    rng = np.random.default_rng(seed)
    prototypes = x[rng.choice(n, size=n_prototypes, replace=False)].copy()
    label_weights = rng.random(n_prototypes)
    groups = _groups(s)

    obj, _, state = _forward(x, y, groups, prototypes, label_weights, a_z, a_x, a_y)
    if not math.isfinite(obj):
        raise FitError(f"non-finite objective at initialization: {obj}")
    trace = [float(obj)]
    step = 1.0
    rel_drop = math.inf
    for _ in range(max_iter):
        grad_v, grad_w = _gradients(x, y, groups, prototypes, label_weights, a_z, a_x, a_y, state)
        accepted = False
        trial = step
        for _ in range(60):
            cand_v = prototypes - trial * grad_v
            cand_w = np.clip(label_weights - trial * grad_w, 0.0, 1.0)
            cand_obj, _, cand_state = _forward(x, y, groups, cand_v, cand_w, a_z, a_x, a_y)
            if not math.isfinite(cand_obj):
                raise FitError(f"non-finite objective during fit: {cand_obj}")
            if cand_obj < obj:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        prototypes, label_weights, state = cand_v, cand_w, cand_state
        rel_drop = (obj - cand_obj) / max(abs(obj), 1e-30)
        obj = cand_obj
        trace.append(float(obj))
        step = trial * 2.0
        if rel_drop < tol:
            break
    else:
        warnings.warn(
            f"LFR did not converge in max_iter={max_iter} steps: "
            f"last relative objective drop {rel_drop:.4g} >= tol {tol:.4g}",
            FairbenchWarning,
        )

    return LfrModel(
        prototypes=prototypes,
        label_weights=label_weights,
        weight_parity=a_z,
        weight_reconstruction=a_x,
        weight_label=a_y,
        objective_trace=tuple(trace),
    )


def lfr_transform(model: LfrModel, ds: TabularDataset) -> TabularDataset:
    """Replace features by the prototype reconstruction and labels by [yhat >= 0.5]."""
    if ds.dim != model.prototypes.shape[1]:
        raise FitError(
            f"dimension mismatch: model fitted on d={model.prototypes.shape[1]}, dataset has d={ds.dim}"
        )
    m = _soft_assignments(ds.features, model.prototypes)
    yhat = m @ model.label_weights
    return ds.replace(
        features=m @ model.prototypes,
        labels=(yhat >= 0.5).astype(np.int64),
    ).with_provenance_step("lfr")
