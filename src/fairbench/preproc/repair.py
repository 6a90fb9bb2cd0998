"""Distributional feature repair: move each group's feature values toward the
median of the group quantile functions while preserving within-group order.

Only labels stay untouched, so data-level label metrics are identical before
and after; the repair level interpolates linearly between the original value
(0) and the fully repaired one (1).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchWarning, FitError
from ..dataset.tabular import TabularDataset
from ..util import Settings, setting


@dataclass(frozen=True)
class DirConfig(Settings):
    bound_error = FitError
    repair_level: float = setting(1.0, least=0, most=1)
    grid_size: int = setting(100, least=2)
    columns: tuple = None  # explicit feature names; None = every non-binary column


def _midrank_quantiles(values, order):
    """Within-group quantile position of each value, ties broken by row order."""
    m = len(values)
    ranks = np.empty(m)
    ranks[order] = np.arange(1, m + 1)
    return (ranks - 0.5) / m


def _repair_column(x, s, level, grid_size):
    grid = (np.arange(1, grid_size + 1) - 0.5) / grid_size
    q = np.empty_like(x)
    quantile_fns = []
    for g in (0, 1):
        rows = np.flatnonzero(s == g)
        vals = x[rows]
        order = np.argsort(vals, kind="stable")
        q[rows] = _midrank_quantiles(vals, order)
        positions = (np.arange(1, len(rows) + 1) - 0.5) / len(rows)
        quantile_fns.append(np.interp(grid, positions, vals[order]))
    median_fn = np.median(np.vstack(quantile_fns), axis=0)
    target = np.interp(q, grid, median_fn)
    return (1.0 - level) * x + level * target


def dir_repair(ds: TabularDataset, cfg: DirConfig = DirConfig()) -> TabularDataset:
    """Repair numeric feature columns; one-hot/binary columns and labels pass through.

    With repair level 1 the per-group distributions of a repaired column agree
    up to one quantile-grid step; with level 0 the features are returned
    bit-identical. A column constant within either group is left unchanged
    with a warning (its group CDF is degenerate).
    """
    s = ds.protected
    if not ((s == 0).any() and (s == 1).any()):
        raise FitError("both groups must be present to repair")

    if cfg.columns is not None:
        missing = set(cfg.columns) - set(ds.feature_names)
        if missing:
            raise FitError(f"unknown repair column(s): {sorted(missing)}")
        selected = [ds.feature_names.index(c) for c in cfg.columns]
    else:
        selected = [
            j for j in range(ds.dim)
            if len(np.unique(ds.features[:, j])) > 2  # skip indicator columns
        ]

    features = ds.features.copy()
    for j in selected:
        col = features[:, j]
        degenerate = [g for g in (0, 1) if len(np.unique(col[s == g])) < 2]
        if degenerate:
            warnings.warn(
                f"column {ds.feature_names[j]!r} is constant within group(s) "
                f"{degenerate}; passed through unrepaired",
                FairbenchWarning,
            )
            continue
        features[:, j] = _repair_column(col, s, cfg.repair_level, cfg.grid_size)

    return ds.replace(features=features).with_provenance_step(f"dir(level={cfg.repair_level})")
