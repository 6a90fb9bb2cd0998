"""Seeded synthetic fixture with a controllable group disparity."""

from dataclasses import dataclass

import numpy as np

from ..util import Settings, setting
from .tabular import TabularDataset

# feature construction: one pure group proxy and one pure label signal; the
# proxy is what an unweighted model exploits and reweighing neutralizes
_SIGNAL_SHIFT = 2.0
_PROXY_SHIFT = 2.0


@dataclass(frozen=True)
class SyntheticSpec(Settings):
    """A `synthetic` dataset block: `make_synthetic`'s arguments."""

    n: int = setting(1000, least=8)
    disparity: float = setting(0.0, least=0, most=1)
    seed: int = setting(0, least=0)


def make_synthetic(seed: int, n: int, disparity: float) -> TabularDataset:
    """Two-Gaussian-feature dataset with P(Y=1 | privileged) = 0.5 + disparity/2.

    Groups are assigned half/half and each group receives exactly the rounded
    number of favorable labels for its rate (0.5 - disparity/2 for the
    unprivileged group), so the statistical parity difference equals
    -disparity up to rounding and a zero disparity gives exact empirical
    independence of group and label. The first feature shifts with the group
    (a proxy), the second with the label. Deterministic for a given seed.
    """
    SyntheticSpec(n=n, disparity=disparity, seed=seed)  # each argument within its bound
    rng = np.random.default_rng(seed)

    protected = np.zeros(n, dtype=np.int64)
    protected[rng.permutation(n)[: n // 2]] = 1

    labels = np.zeros(n, dtype=np.int64)
    for group in (0, 1):
        rows = np.flatnonzero(protected == group)
        rate = 0.5 + (1 if group == 1 else -1) * disparity / 2.0
        favorable = int(np.floor(rate * len(rows) + 0.5))
        labels[rows[rng.permutation(len(rows))[:favorable]]] = 1

    proxy = rng.normal(_PROXY_SHIFT * protected, 1.0)
    signal = rng.normal(_SIGNAL_SHIFT * labels, 1.0)
    features = np.column_stack([proxy, signal])

    return TabularDataset(
        features=features,
        labels=labels,
        protected=protected,
        weights=np.ones(n),
        feature_names=("proxy", "signal"),
        provenance=f"synthetic[n={n},disparity={disparity},seed={seed}]",
    )
