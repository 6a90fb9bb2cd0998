"""Probabilistic transformation of features and labels on a discretized domain.

Numeric columns are cut into equal-frequency bins; a conditional table
P(target cell, target label | cell, label, group) is fitted by mirror descent
on the per-row probability simplices. The objective keeps the transformed
joint close to the original (KL), group favorable rates close to a target
distribution (the overall label distribution, within a tolerance), and the
expected per-record distortion under a budget. Every mirror-descent iterate is
fixed by four parameters (a distortion scale, one weight per target and one
favorable-label weight per group), so the fit carries those and builds the
table once.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchWarning, FitError
from ..dataset.tabular import TabularDataset
from ..util import Settings, setting
from .descent import descend

_MAX_DOMAIN_CELLS = 10_000


@dataclass(frozen=True)
class OppConfig(Settings):
    bound_error = FitError
    epsilon: float = setting(0.05, above=0)  # allowed relative deviation of group rates from target
    distortion_budget: float = setting(0.25, least=0)
    bins: int = setting(5, least=2)
    max_iter: int = setting(500, least=0)
    # a negative flip cost or distortion weight would let exp(-c * dist) grow without bound,
    # and an infinite one makes the objective non-finite
    rho_fair: float = setting(100.0, least=0, below=math.inf)
    rho_dist: float = setting(100.0, least=0, below=math.inf)
    label_flip_cost: float = setting(1.0, least=0, below=math.inf)
    columns: tuple = None  # None = every feature column


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
    row_sum_drift: float       # max |row sum - 1| of the table

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
    """Lexicographically sorted distinct rows of an int64 matrix, and each input row's index among them.

    Each row is read as one mixed-radix number, its first column the most
    significant digit, each digit shifted by its column's minimum, so the
    numbers sort as the rows do. The domain guard (`_MAX_DOMAIN_CELLS`)
    keeps the product of the radices far inside int64.
    """
    low = matrix.min(axis=0)
    radix = matrix.max(axis=0) - low + 1
    place = np.ones_like(radix)  # the last column varies fastest
    place[:-1] = np.cumprod(radix[:0:-1])[::-1]
    _, first, inverse = np.unique((matrix - low) @ place, return_index=True, return_inverse=True)
    return matrix[first], inverse


def opp_fit(ds: TabularDataset, cfg: OppConfig = OppConfig()) -> OppMap:
    """Fit the conditional transformation table by line-searched mirror descent.

    A mirror step multiplies row r by exp(-step * grad_r) and renormalizes it,
    where grad_r = log(p_hat / p_target) + 1 + a_g * y1 + b * dist_r for the
    row's group g. So every iterate is
    table[r, t] = exp(-c * dist[r, t] - u[t] - A_g * y1[t]) / Z_r, and the fit
    carries the scalar c, the target vector u and A_0, A_1; the table is
    built once, at the end. A trial step costs a few products with one
    (cells, cells) kernel, not passes over the (rows, targets) table, and
    has no point when a row's Z_r is not positive. The steps are `descend`'s,
    with relative-drop tolerance 1e-12 and at most `max_iter` steps. If no
    table drives both penalties to zero the best-effort table is returned
    with the residuals recorded.
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

    # The distortion of row r to target t is the Hamming fraction between their
    # cells plus the label-flip cost. Rows fall in four blocks, one per (group,
    # label), and every row of a block flips the same targets' labels: the
    # flip's factor exp(-c * flip_cost) joins the block's target weights W_b,
    # which leaves the kernel K = exp(-c * Hamming fraction) over cell pairs.
    # Shifted to max 1, W_b keeps every Z_r >= exp(-c).
    fraction = np.arange(cells.shape[1] + 1) / max(cells.shape[1], 1)  # no columns: Hamming 0
    hamming = (cells[:, None, :] != cells[None, :, :]).sum(axis=2)
    block_group, block_label = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    block_flip = (target_keys[:, 1] != block_label[:, None]) * cfg.label_flip_cost
    row_block, row_cell = 2 * row_keys[:, 2] + row_keys[:, 1], row_keys[:, 0]
    row_at = row_block * len(cells) + row_cell            # index into a (blocks, cells) array
    target_cell = target_keys[:, 0]
    cell_start = np.flatnonzero(np.diff(target_cell, prepend=-1))  # targets are sorted by cell
    y1 = (target_keys[:, 1] == 1).astype(float)           # targets with favorable label
    p_group = np.bincount(row_keys[:, 2], weights=p_row, minlength=2)
    if (p_group <= 0).any():
        raise FitError("both groups must be present")
    target_rate = float((ds.weights * (ds.labels == 1)).sum() / ds.weights.sum())
    if target_rate <= 0:
        raise FitError("target label distribution degenerate: no favorable labels")

    def kernels(c):
        """exp(-c * Hamming fraction) between cells, and that times the fraction."""
        k = np.exp(-c * fraction)
        return k[hamming], (k * fraction)[hamming]

    def evaluate(c, u, a, kern):
        """Objective terms of the table the parameters give; None when a row has no mass.

        Where the parameters leave a row almost no representable mass the
        terms overflow; the objective is then not finite, and the trial halves.
        """
        k, kh = kern
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            exponent = -u - a[block_group, None] * y1 - c * block_flip
            exponent -= exponent.max(axis=1, keepdims=True)  # the shift cancels in Z
            weights = np.exp(exponent)
            # per block and cell, summed over the cell's targets; as K is
            # symmetric, K @ x for each block's x is a row of x @ K
            cell_weights = np.add.reduceat(weights, cell_start, axis=1)
            flip_weights = np.add.reduceat(weights * block_flip, cell_start, axis=1)
            z = (cell_weights @ k).ravel()[row_at]
            if (z <= 0).any():
                return None
            # p_row / Z_r at each row's block and cell
            q = np.bincount(row_at, weights=p_row / z, minlength=4 * len(cells)).reshape(4, -1)
            block_hat = weights * (q @ k)[:, target_cell]
            p_hat = block_hat.sum(axis=0)
            rates = np.bincount(block_group, weights=block_hat @ y1)
            expected = float((q * (cell_weights @ kh + flip_weights @ k)).sum())
            logs = np.where(p_hat > 0, np.log(np.where(p_hat > 0, p_hat, 1.0) / p_target), 0.0)
            kl = float((p_hat * logs).sum())
        ratios = rates / p_group / target_rate
        hinges = np.maximum(0.0, np.abs(ratios - 1.0) - cfg.epsilon)
        dist_hinge = max(0.0, expected - cfg.distortion_budget)
        j = kl + cfg.rho_fair * float(hinges.sum()) + cfg.rho_dist * dist_hinge
        return j, logs, ratios, hinges, dist_hinge, weights, z

    def direction(point):
        """`descend`'s trial steps from `point` = (c, u, A, kernels, terms) along the mirror step."""
        c, u, a, kern, (_, logs, ratios, hinges, dist_hinge, *_) = point
        # the gradient's group part (favorable targets only) and distortion part;
        # its per-target part is logs, the +1 cancelling in Z
        step_a = np.where(hinges > 0, cfg.rho_fair * np.sign(ratios - 1.0) / (p_group * target_rate), 0.0)
        step_c = cfg.rho_dist if dist_hinge > 0 else 0.0

        def trial(t):
            cand_c = c + t * step_c
            cand_kern = kern if cand_c == c else kernels(cand_c)
            cand_u, cand_a = u + t * logs, a + t * step_a
            cand = evaluate(cand_c, cand_u, cand_a, cand_kern)
            return None if cand is None else (cand[0], (cand_c, cand_u, cand_a, cand_kern, cand))
        return trial

    c, u, a = 4.0, np.zeros(len(y1)), np.zeros(2)
    kern = kernels(c)
    start = evaluate(c, u, a, kern)
    (*_, kern, terms), trace, _ = descend("optimized pre-processing", start[0], (c, u, a, kern, start),
                                         direction, cfg.max_iter, tol=1e-12, floor=1.0, cap=1000.0)

    _, _, _, hinges, dist_residual, weights, z = terms
    table = kern[0][row_cell][:, target_cell] * weights[row_block] / z[:, None]
    fair_residual = float(hinges.max())
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
        penalty_trace=trace,
        fairness_residual=fair_residual,
        distortion_residual=dist_residual,
        row_sum_drift=float(np.abs(table.sum(axis=1) - 1.0).max()),
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
