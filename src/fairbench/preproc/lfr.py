"""Fair representation learning through a small set of prototype points.

Inputs are soft-assigned to K prototypes via a softmax over negative squared
distances; the objective balances group parity of the prototype assignments,
reconstruction fidelity, and label fidelity. Expects z-scored features (the
pipeline standardizes before fitting).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import FitError
from ..dataset.tabular import TabularDataset
from ..util import Settings, setting
from .descent import descend

_PROB_CLIP = 1e-6


@dataclass(frozen=True)
class LfrConfig(Settings):
    bound_error = FitError
    # a negative weight makes the fit maximize its term, and an infinite one its objective non-finite
    prototypes: int = setting(10, least=2)               # K
    a_z: float = setting(50.0, least=0, below=math.inf)  # parity weight
    a_x: float = setting(0.01, least=0, below=math.inf)  # reconstruction weight
    a_y: float = setting(1.0, least=0, below=math.inf)   # label weight
    max_iter: int = setting(5000, least=0)
    tol: float = setting(1e-6, least=0)  # stop below this relative objective decrease


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


def _assignments(pxt, sq_norms):
    """(K, n) soft assignments from P x^T and the prototypes' squared norms: a softmax down each column.

    The same softmax as `_soft_assignments`, with each record's logits in one
    column, so the max and the sum reduce over K contiguous rows.
    """
    a = pxt * 2.0
    a -= sq_norms[:, None]
    a -= a.max(axis=0)
    np.exp(a, out=a)
    a /= a.sum(axis=0)
    return a


class _Problem:
    """One fit's data and weights; evaluates the objective in prototype space.

    A point is given by its products P x^T (K, n) and P P^T (K, K), so no
    evaluation touches x. With M the (K, n) soft assignments, the
    reconstruction loss is ||M^T P - x||^2 = sum M * (P P^T M) - 2 sum M * P x^T + ||x||^2.
    """

    def __init__(self, x, y, s, a_z, a_x, a_y):
        self.x, self.y = x, y
        self.n = x.shape[0]
        # M @ parity is the gap between the groups' mean assignments
        self.parity = (s == 1) / np.count_nonzero(s == 1) - (s == 0) / np.count_nonzero(s == 0)
        self.x_sq = float(np.vdot(x, x))
        self.a_z, self.a_x, self.a_y = a_z, a_x, a_y

    def at(self, prototypes, label_weights):
        """`evaluate` at explicit prototypes, which takes one product with x."""
        return self.evaluate(prototypes @ self.x.T, prototypes @ prototypes.T, label_weights)

    def evaluate(self, pxt, ppt, label_weights):
        """Objective, its three components, and the state the gradient needs."""
        m = _assignments(pxt, np.diagonal(ppt))
        mg = ppt @ m
        gap = m @ self.parity
        yhat_raw = label_weights @ m
        yhat = np.clip(yhat_raw, _PROB_CLIP, 1.0 - _PROB_CLIP)
        y = self.y
        l_parity = np.abs(gap).sum()
        l_recon = (np.vdot(m, mg) - 2.0 * np.vdot(m, pxt) + self.x_sq) / self.n
        l_label = -(y * np.log(yhat) + (1.0 - y) * np.log(1.0 - yhat)).mean()
        objective = self.a_z * l_parity + self.a_x * l_recon + self.a_y * l_label
        return objective, (l_parity, l_recon, l_label), (m, mg, pxt, ppt, gap, yhat_raw, yhat)

    def gradients(self, state, prototypes, label_weights):
        """Analytic gradients w.r.t. prototypes and label weights at the point `state` describes.

        One (K, n) @ (n, d) product: with c = 2 a_x / n and H the gradient
        back through the softmax, grad P = (2H - cM) x + (c M M^T - 2 diag(sum H)) P.
        """
        m, mg, pxt, _, gap, yhat_raw, yhat = state
        c = 2.0 * self.a_x / self.n
        clipped = (yhat_raw < _PROB_CLIP) | (yhat_raw > 1.0 - _PROB_CLIP)
        dldy = (yhat - self.y) / (yhat * (1.0 - yhat)) / self.n
        dldy[clipped] = 0.0

        # dL/dM: reconstruction (2/n)(P P^T M - P x^T), parity and label terms
        g = mg - pxt
        g *= c
        g += np.outer(self.a_z * np.sign(gap), self.parity)
        g += np.outer(self.a_y * label_weights, dldy)
        # back through the softmax, in place: H = M * (G - sum_k G M)
        h = g
        h -= (g * m).sum(axis=0)
        h *= m
        # then through -||x-v||^2, plus the reconstruction's direct dependence on P
        grad_v = (2.0 * h - c * m) @ self.x
        grad_v += (c * (m @ m.T) - np.diag(2.0 * h.sum(axis=1))) @ prototypes

        grad_w = self.a_y * (m @ dldy)
        return grad_v, grad_w

    def direction(self, point):
        """`descend`'s trials from `point` = (P, label weights, state) along -G, the gradient; weights clamp to [0, 1].

        x enters two products, the gradient's and G x^T. A trial at length t takes P x^T - t G x^T and
        P P^T - t (P G^T + G P^T) + t^2 G G^T, so it costs O(K n + K^2 n), and the state it reaches gives
        the next gradient. A non-finite objective is a FitError.
        """
        prototypes, label_weights, state = point
        grad_v, grad_w = self.gradients(state, prototypes, label_weights)
        _, _, pxt, ppt, *_ = state
        gxt = grad_v @ self.x.T
        pgt = prototypes @ grad_v.T
        cross = pgt + pgt.T
        ggt = grad_v @ grad_v.T

        def trial(t):
            cand_w = np.clip(label_weights - t * grad_w, 0.0, 1.0)
            cand_obj, _, cand_state = self.evaluate(pxt - t * gxt, ppt - t * cross + (t * t) * ggt, cand_w)
            if not math.isfinite(cand_obj):
                raise FitError(f"non-finite objective during fit: {cand_obj}")
            return cand_obj, (prototypes - t * grad_v, cand_w, cand_state)
        return trial


def lfr_objective(x, y, s, prototypes, label_weights, a_z, a_x, a_y):
    """Objective value and its three components at the given parameters."""
    objective, parts, _ = _Problem(x, y, s, a_z, a_x, a_y).at(prototypes, label_weights)
    return objective, parts


def lfr_gradients(x, y, s, prototypes, label_weights, a_z, a_x, a_y):
    """Analytic gradients of the objective w.r.t. prototypes and label weights."""
    problem = _Problem(x, y, s, a_z, a_x, a_y)
    *_, state = problem.at(prototypes, label_weights)
    return problem.gradients(state, prototypes, label_weights)


def lfr_fit(ds: TabularDataset, cfg: LfrConfig = LfrConfig(), seed: int = 0) -> LfrModel:
    """Projected gradient descent by `descend`: relative-drop tolerance `cfg.tol`, at most `cfg.max_iter` steps.

    Prototypes start at K records sampled by seed. The fit runs in prototype space (`_Problem.direction`).
    The Gram form of the reconstruction loss cancels: its rounding error is about
    eps * (|sum M P P^T M| + 2 |sum M P x^T| + ||x||^2), small unless K prototypes reconstruct x almost exactly.
    """
    x = ds.features
    y = ds.labels.astype(np.float64)
    s = ds.protected
    n = x.shape[0]
    if cfg.prototypes >= n:
        raise FitError(f"need fewer prototypes than rows (K={cfg.prototypes}, n={n})")
    if not ((s == 0).any() and (s == 1).any()):
        raise FitError("both groups must be present")

    rng = np.random.default_rng(seed)
    prototypes = x[rng.choice(n, size=cfg.prototypes, replace=False)].copy()
    label_weights = rng.random(cfg.prototypes)
    problem = _Problem(x, y, s, cfg.a_z, cfg.a_x, cfg.a_y)

    obj, _, state = problem.at(prototypes, label_weights)
    (prototypes, label_weights, _), trace, _ = descend(
        "LFR", obj, (prototypes, label_weights, state), problem.direction, cfg.max_iter, cfg.tol,
        floor=1e-30, cap=math.inf)

    return LfrModel(
        prototypes=prototypes,
        label_weights=label_weights,
        weight_parity=cfg.a_z,
        weight_reconstruction=cfg.a_x,
        weight_label=cfg.a_y,
        objective_trace=trace,
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
