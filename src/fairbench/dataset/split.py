"""Seed-deterministic stratified train/validation/test splitting."""

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchError, FairbenchWarning, SchemaError
from ..util import Settings, integer, setting
from .tabular import TabularDataset


@dataclass(frozen=True)
class SplitSpec(Settings):
    train: float = setting(0.70, above=0, below=1)
    validation: float = setting(0.15, above=0, below=1)
    test: float = setting(0.15, above=0, below=1)
    seed: int = setting(0, least=0)

    def __post_init__(self):
        integer(self.seed, "seed")  # numpy's generators take no float or bool seed
        super().__post_init__()
        if abs(self.train + self.validation + self.test - 1.0) > 1e-9:
            raise SchemaError(f"split fractions must sum to 1, got {self.train + self.validation + self.test}")


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def _hamilton(quotas, total):
    """Integer allocation summing to `total`, each count within floor/ceil of its quota."""
    quotas = np.asarray(quotas, dtype=float)
    counts = np.floor(quotas).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(quotas - np.floor(quotas)), kind="stable")
        counts[order[:short]] += 1
    return counts


def split_indices(ds: TabularDataset, spec: SplitSpec):
    """Disjoint, exhaustive (train, val, test) index arrays, stratified by (label, group).

    Validation/test sizes are round-half-up of the fractions; the remainder goes
    to train. Within each (label, group) cell the split counts stay within one
    row of exact proportionality whenever that is feasible.
    """
    n = ds.n
    if n < 10:
        raise FairbenchError(f"need at least 10 rows to split, got {n}")
    if len(np.unique(ds.labels)) < 2 or len(np.unique(ds.protected)) < 2:
        raise FairbenchError("both labels and both groups must be present to split")

    n_val = _round_half_up(n * spec.validation)
    n_test = _round_half_up(n * spec.test)
    n_train = n - n_val - n_test
    targets = np.array([n_train, n_val, n_test])

    cell_of = ds.labels * 2 + ds.protected
    cells = [np.flatnonzero(cell_of == c) for c in range(4)]
    if any(len(c) == 0 for c in cells):
        warnings.warn(
            "empty (label, group) cell; stratifying on label only", FairbenchWarning
        )
        cells = [np.flatnonzero(ds.labels == y) for y in (0, 1)]
        cells = [c for c in cells if len(c)]
    else:
        cells = [c for c in cells if len(c)]

    fracs = np.array([spec.train, spec.validation, spec.test])
    sizes = np.array([len(c) for c in cells])
    counts = np.vstack([_hamilton(m * fracs, m) for m in sizes])  # (n_cells, 3)

    # nudge totals onto the exact targets, preferring moves that keep each
    # cell count within floor/ceil of its quota
    quotas = sizes[:, None] * fracs[None, :]
    for _ in range(4 * n):
        totals = counts.sum(axis=0)
        if (totals == targets).all():
            break
        over = int(np.argmax(totals - targets))
        under = int(np.argmin(totals - targets))
        movable = np.flatnonzero(counts[:, over] > 0)
        good = [
            c
            for c in movable
            if counts[c, over] > np.floor(quotas[c, over]) and counts[c, under] < np.ceil(quotas[c, under])
        ]
        pick = good[0] if good else int(movable[0])
        counts[pick, over] -= 1
        counts[pick, under] += 1

    rng = np.random.default_rng(spec.seed)
    parts = [[], [], []]
    for cell_rows, (c_train, c_val, c_test) in zip(cells, counts):
        perm = cell_rows[rng.permutation(len(cell_rows))]
        parts[0].append(perm[:c_train])
        parts[1].append(perm[c_train:c_train + c_val])
        parts[2].append(perm[c_train + c_val:])
    return tuple(np.sort(np.concatenate(p)) for p in parts)


def split(ds: TabularDataset, spec: SplitSpec):
    """Split into (train, val, test) datasets; see `split_indices` for the contract."""
    idx_train, idx_val, idx_test = split_indices(ds, spec)
    return ds.take(idx_train), ds.take(idx_val), ds.take(idx_test)
