"""Probabilistic transformation of features and labels on a discretized domain.

Numeric columns are cut into equal-frequency bins; a conditional table
P(target cell, target label | cell, label, group) is fitted by mirror descent
on the per-row probability simplices. The objective keeps the transformed
joint close to the original (KL), group favorable rates close to a target
distribution (the overall label distribution, within a tolerance), and the
expected per-record distortion under a budget.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchWarning, FitError
from ..dataset.tabular import TabularDataset

_MAX_DOMAIN_CELLS = 10_000


@dataclass(frozen=True)
class OppConfig:
    epsilon: float = 0.05          # allowed relative deviation of group rates from target
    distortion_budget: float = 0.25
    bins: int = 5
    max_iter: int = 500
    rho_fair: float = 100.0
    rho_dist: float = 100.0
    label_flip_cost: float = 1.0
    columns: tuple = None          # None = every feature column

    def __post_init__(self):
        if self.epsilon <= 0:
            raise FitError("epsilon must be positive")
        if self.distortion_budget < 0:
            raise FitError("distortion budget must be non-negative")
        if self.bins < 2:
            raise FitError("need at least 2 bins")


@dataclass(frozen=True)
class OppMap:
    column_names: tuple
    column_kinds: tuple        # "binned" or "levels" per column
    bin_edges: tuple           # interior quantile edges (binned) or observed levels
    bin_values: tuple          # training median per bin / level values
    cells: tuple               # observed feature-cell tuples, lexicographic
    row_keys: tuple            # observed (cell index, label, group) triples
    target_keys: tuple         # observed (cell index, label) pairs
    table: np.ndarray          # (rows, targets) conditional probabilities
    epsilon: float
    distortion_budget: float
    penalty_trace: tuple
    fairness_residual: float
    distortion_residual: float
    row_sum_drift: float       # max |row sum - 1| seen over all iterations

    def __post_init__(self):
        sums = self.table.sum(axis=1)
        if (self.table < 0).any() or np.abs(sums - 1.0).max() > 1e-9:
            raise FitError("conditional table rows must be distributions (sum 1, non-negative)")


def _discretize_columns(ds, cfg):
    """Per-column binning structures: kind, edges or levels, and bin values."""
    names = list(cfg.columns) if cfg.columns is not None else list(ds.feature_names)
    missing = set(names) - set(ds.feature_names)
    if missing:
        raise FitError(f"unknown OPP column(s): {sorted(missing)}")
    kinds, edges_list, values_list = [], [], []
    for name in names:
        col = ds.features[:, ds.feature_names.index(name)]
        uniq = np.unique(col)
        if len(uniq) <= 2:
            kinds.append("levels")
            edges_list.append(tuple(float(u) for u in uniq))
            values_list.append(tuple(float(u) for u in uniq))
        else:
            qs = np.quantile(col, np.linspace(0, 1, cfg.bins + 1)[1:-1])
            interior = np.unique(qs)
            kinds.append("binned")
            edges_list.append(tuple(float(e) for e in interior))
            code = np.searchsorted(interior, col, side="right")
            medians = []
            for b in range(len(interior) + 1):
                members = col[code == b]
                medians.append(float(np.median(members)) if len(members) else float(col.mean()))
            values_list.append(tuple(medians))
    return names, tuple(kinds), tuple(edges_list), tuple(values_list)


def _cell_codes(ds: TabularDataset, names, kinds, edges_list):
    """(n, columns) cell codes under a binning; values off the levels clamp to the nearest."""
    codes = np.empty((ds.n, len(names)), dtype=np.int64)
    clamped = 0
    for j, (name, kind, edges) in enumerate(zip(names, kinds, edges_list)):
        if name not in ds.feature_names:
            raise FitError(f"dataset lacks fitted column {name!r}")
        col = ds.features[:, ds.feature_names.index(name)]
        edges = np.asarray(edges)
        if kind == "binned":
            codes[:, j] = np.searchsorted(edges, col, side="right")
        else:
            # an exact hit is the nearest level, so this clamps only the misses
            codes[:, j] = np.abs(col[:, None] - edges[None, :]).argmin(axis=1)
            clamped += int((edges[codes[:, j]] != col).sum())
    if clamped:
        warnings.warn(f"{clamped} value(s) outside the fitted levels clamped to the nearest", FairbenchWarning)
    return codes


def _unique_rows(matrix):
    """Lexicographically sorted distinct rows and each input row's index among them."""
    rows, inverse = np.unique(matrix, axis=0, return_inverse=True)
    # the inverse's shape differs across numpy 2.x releases
    return rows, inverse.ravel()


def _distortion_matrix(row_keys, target_keys, cells, flip_cost):
    """Hamming distance between cells plus the label-flip cost, per (row, target)."""
    diff = cells[row_keys[:, 0]][:, None, :] != cells[target_keys[:, 0]][None, :, :]
    hamming = diff.sum(axis=2) / max(cells.shape[1], 1)  # no columns: every distance is 0
    flips = (row_keys[:, 1][:, None] != target_keys[:, 1][None, :]).astype(float)
    return hamming + flip_cost * flips


def opp_fit(ds: TabularDataset, cfg: OppConfig = OppConfig()) -> OppMap:
    """Fit the conditional transformation table by line-searched mirror descent.

    Every iteration renormalizes each row onto the simplex; the penalty trace
    is non-increasing by construction. If no table drives both penalties to
    zero the best-effort table is returned with the residuals recorded.
    """
    names, kinds, edges, values = _discretize_columns(ds, cfg)
    domain = 1
    for vals in values:
        domain *= len(vals)
    if domain * 2 > _MAX_DOMAIN_CELLS:
        raise FitError(
            f"discretized domain too large: {domain} cells x 2 labels > {_MAX_DOMAIN_CELLS} "
            f"from {len(names)} discretized column(s); set the OPP parameter `columns` "
            "to a few low-cardinality feature columns"
        )
    cells, cell_of = _unique_rows(_cell_codes(ds, names, kinds, edges))
    row_keys, row_of = _unique_rows(np.column_stack([cell_of, ds.labels, ds.protected]))
    target_keys, target_of = _unique_rows(np.column_stack([cell_of, ds.labels]))
    w = ds.weights / ds.weights.sum()
    p_row = np.bincount(row_of, weights=w)
    p_target = np.bincount(target_of, weights=w)

    dist = _distortion_matrix(row_keys, target_keys, cells, cfg.label_flip_cost)

    y1 = (target_keys[:, 1] == 1).astype(float)           # targets with favorable label
    # each group's table rows and their masses, selected once per fit
    group_rows = [np.flatnonzero(row_keys[:, 2] == s) for s in (0, 1)]
    p_row_group = [p_row[rows] for rows in group_rows]
    p_group = np.array([p.sum() for p in p_row_group])
    if (p_group <= 0).any():
        raise FitError("both groups must be present")
    target_rate = float((ds.weights * (ds.labels == 1)).sum() / ds.weights.sum())
    if target_rate <= 0:
        raise FitError("target label distribution degenerate: no favorable labels")

    table = np.exp(-4.0 * dist)
    table /= table.sum(axis=1, keepdims=True)

    def evaluate(tab):
        p_hat = p_row @ tab
        with np.errstate(divide="ignore"):
            logs = np.where(p_hat > 0, np.log(np.where(p_hat > 0, p_hat, 1.0) / p_target), 0.0)
        kl = float((p_hat * logs).sum())
        rates = np.array([
            float((p_row_group[s] @ tab[group_rows[s]]) @ y1) / p_group[s] for s in (0, 1)
        ])
        ratios = rates / target_rate
        hinges = np.maximum(0.0, np.abs(ratios - 1.0) - cfg.epsilon)
        expected = float((p_row[:, None] * tab * dist).sum())
        dist_hinge = max(0.0, expected - cfg.distortion_budget)
        j = kl + cfg.rho_fair * float(hinges.sum()) + cfg.rho_dist * dist_hinge
        return j, logs, ratios, hinges, expected, dist_hinge

    obj, logs, ratios, hinges, expected, dist_hinge = evaluate(table)
    if not math.isfinite(obj):
        raise FitError(f"non-finite objective at initialization: {obj}")
    trace = [float(obj)]
    drift = float(np.abs(table.sum(axis=1) - 1.0).max())
    eta = 1.0
    for _ in range(cfg.max_iter):
        # gradient per row, normalized by the row mass
        grad = (logs + 1.0)[None, :].repeat(len(row_keys), axis=0)
        active = hinges > 0
        for s in (0, 1):
            if active[s]:
                sign = math.copysign(1.0, ratios[s] - 1.0)
                grad[group_rows[s]] += cfg.rho_fair * sign * y1[None, :] / (p_group[s] * target_rate)
        if dist_hinge > 0:
            grad += cfg.rho_dist * dist

        accepted = False
        trial = eta
        for _ in range(60):
            # mirror step; the per-row exponent shift keeps exp in range and
            # cancels in the normalization
            exponent = -trial * grad
            exponent -= exponent.max(axis=1, keepdims=True)
            cand = table * np.exp(exponent)
            row_mass = cand.sum(axis=1, keepdims=True)
            if (row_mass <= 0).any():
                trial *= 0.5
                continue
            cand /= row_mass
            cand_obj, c_logs, c_ratios, c_hinges, c_expected, c_dist_hinge = evaluate(cand)
            if math.isfinite(cand_obj) and cand_obj < obj:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        table = cand
        drift = max(drift, float(np.abs(table.sum(axis=1) - 1.0).max()))
        obj, logs, ratios, hinges, expected, dist_hinge = cand_obj, c_logs, c_ratios, c_hinges, c_expected, c_dist_hinge
        trace.append(float(obj))
        eta = min(trial * 2.0, 1000.0)
        if len(trace) >= 2 and (trace[-2] - trace[-1]) < 1e-12 * max(abs(trace[-2]), 1.0):
            break

    fair_residual = float(np.maximum(0.0, np.abs(ratios - 1.0) - cfg.epsilon).max())
    dist_residual = float(max(0.0, expected - cfg.distortion_budget))
    if fair_residual > 1e-3 or dist_residual > 1e-3:
        warnings.warn(
            "optimized pre-processing could not satisfy both constraints: "
            f"fairness residual {fair_residual:.4g}, distortion residual {dist_residual:.4g}",
            FairbenchWarning,
        )

    return OppMap(
        column_names=tuple(names),
        column_kinds=kinds,
        bin_edges=edges,
        bin_values=values,
        cells=tuple(map(tuple, cells.tolist())),
        row_keys=tuple(map(tuple, row_keys.tolist())),
        target_keys=tuple(map(tuple, target_keys.tolist())),
        table=table,
        epsilon=cfg.epsilon,
        distortion_budget=cfg.distortion_budget,
        penalty_trace=tuple(trace),
        fairness_residual=fair_residual,
        distortion_residual=dist_residual,
        row_sum_drift=drift,
    )


def _lookup(keys, queries):
    """Index of each query row among the sorted distinct rows `keys`, or -1 when absent."""
    found, inverse = _unique_rows(np.concatenate([keys, queries]))
    position = np.full(len(found), -1)
    position[inverse[: len(keys)]] = np.arange(len(keys))
    return position[inverse[len(keys):]]


def opp_transform(mapping: OppMap, ds: TabularDataset, seed: int) -> TabularDataset:
    """Resample each record's cell and label from the fitted conditional table.

    Numeric columns take their target bin's training median; group membership
    and weights are preserved. Deterministic for a given seed: the draws are
    those of one `rng.choice(p=row)` per record, in record order.
    """
    rng = np.random.default_rng(seed)
    cells = np.array(mapping.cells, dtype=np.int64).reshape(len(mapping.cells), len(mapping.column_names))
    row_keys = np.array(mapping.row_keys, dtype=np.int64)
    target_keys = np.array(mapping.target_keys, dtype=np.int64)

    record_cells = _cell_codes(ds, mapping.column_names, mapping.column_kinds, mapping.bin_edges)
    cell = _lookup(cells, record_cells)
    unseen_cells = np.flatnonzero(cell < 0)
    for i in unseen_cells:
        # unseen combination: snap to the nearest observed cell by Hamming distance
        cell[i] = (cells != record_cells[i]).sum(axis=1).argmin()
    keys = np.column_stack([cell, ds.labels, ds.protected])
    row = _lookup(row_keys, keys)
    unseen_keys = np.flatnonzero(row < 0)
    for i in unseen_keys:
        # (cell, label, group) unseen in training: prefer rows sharing the
        # label and group, then the group alone (fitting needs both groups)
        key_cell, label, group = keys[i]
        same_group = row_keys[:, 2] == group
        candidates = np.flatnonzero(same_group & (row_keys[:, 1] == label))
        if not len(candidates):
            candidates = np.flatnonzero(same_group)
        row[i] = candidates[np.abs(row_keys[candidates, 0] - key_cell).argmin()]
    clamped_rows = len(unseen_cells) + len(unseen_keys)

    # inverse-CDF draws, computed as Generator.choice computes them
    cdf = mapping.table.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(ds.n)
    target = np.empty(ds.n, dtype=np.int64)
    for r in np.unique(row):
        at = row == r
        target[at] = cdf[r].searchsorted(u[at], side="right")

    target_cells = cells[target_keys[target, 0]]
    features = ds.features.copy()
    for j, name in enumerate(mapping.column_names):
        features[:, ds.feature_names.index(name)] = np.asarray(mapping.bin_values[j])[target_cells[:, j]]
    if clamped_rows:
        warnings.warn(f"{clamped_rows} record(s) outside the fitted domain snapped to the nearest cell", FairbenchWarning)

    return ds.replace(features=features, labels=target_keys[target, 1]).with_provenance_step("opp")
