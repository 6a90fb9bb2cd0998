"""Data-level group fairness metrics (stage 1).

Weighted convention: Pr(A) = sum of weights over A / total weight. Group 0 is
unprivileged, group 1 privileged; label 1 is favorable. Consistency, label
counts, and the empirical difference are deliberately unweighted — reweighing
must move the weighted rates to parity while leaving them untouched.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FairbenchWarning, UndefinedMetricError
from ..dataset.tabular import TabularDataset, standardize

@dataclass(frozen=True)
class DatasetMetrics:
    """The seven data-level metrics in reporting order."""

    base_rate: float
    base_rate_unprivileged: float
    base_rate_privileged: float
    consistency: float
    disparate_impact: float
    statistical_parity_difference: float
    num_positives: int
    num_negatives: int
    empirical_difference: float

    def __post_init__(self):
        if self.num_positives < 0 or self.num_negatives < 0:
            raise ValueError("label counts must be non-negative")
        if not 0.0 <= self.consistency <= 1.0 + 1e-12:
            raise ValueError(f"consistency out of [0,1]: {self.consistency}")


def base_rate(ds: TabularDataset, group=None) -> float:
    """Weighted favorable-label fraction, overall or within one group."""
    if group is None:
        mask = np.ones(ds.n, dtype=bool)
    else:
        mask = ds.protected == group
        if not mask.any():
            raise UndefinedMetricError(f"base rate undefined: group {group} is empty")
    w = ds.weights[mask]
    total = w.sum()
    if total <= 0:
        raise UndefinedMetricError(f"base rate undefined: group {group} has zero total weight")
    return float(w[ds.labels[mask] == 1].sum() / total)


def _group_rates(ds):
    return base_rate(ds, group=0), base_rate(ds, group=1)


def disparate_impact(ds: TabularDataset) -> float:
    """Unprivileged / privileged weighted favorable rate.

    A zero privileged rate yields the infinity sentinel (nan when both rates
    are zero); report writers render non-finite ratios as undefined.
    """
    r0, r1 = _group_rates(ds)
    if r1 == 0.0:
        warnings.warn("disparate impact undefined: privileged favorable rate is 0", FairbenchWarning)
        return math.nan if r0 == 0.0 else math.inf
    return float(r0 / r1)


def statistical_parity_difference(ds: TabularDataset) -> float:
    """Unprivileged minus privileged weighted favorable rate."""
    r0, r1 = _group_rates(ds)
    return float(r0 - r1)


def count_labels(ds: TabularDataset):
    """Raw unweighted (positives, negatives)."""
    pos = int((ds.labels == 1).sum())
    return pos, ds.n - pos


def empirical_difference(ds: TabularDataset) -> float:
    """Smoothed differential fairness of the label.

    Dirichlet-smoothed per-group label rates p(y|s) = (count(y,s) + 0.5) /
    (count(s) + 1) on unweighted counts; returns the largest absolute log-ratio
    between the groups over both label values.
    """
    for g in (0, 1):
        if not (ds.protected == g).any():
            raise UndefinedMetricError(f"empirical difference undefined: group {g} is empty")
    worst = 0.0
    for y in (0, 1):
        rates = []
        for g in (0, 1):
            in_group = ds.protected == g
            n_g = int(in_group.sum())
            n_yg = int((ds.labels[in_group] == y).sum())
            rates.append((n_yg + 0.5) / (n_g + 1.0))
        worst = max(worst, abs(math.log(rates[0] / rates[1])))
    return float(worst)


# the screen's thresholds come from every STRIDE-th column; a row that keeps
# more than HEAVY columns after that is screened again in a frame centred on
# its cluster, at most LOCAL_FRAMES times per block
STRIDE = 8
HEAVY = 128
LOCAL_FRAMES = 8
_U64 = 2.0 ** -53


def _gamma(count, unit):
    """Higham's gamma: the relative error bound of `count` roundings of unit roundoff `unit`."""
    return count * unit / (1 - count * unit)


def _floor(x, dtype):
    """Values of `dtype` at or below the float64 values `x`, allowing for the one rounding that made `x`."""
    x = np.nextafter(x, -np.inf)
    t = x.astype(dtype)
    return np.where(t > x, np.nextafter(t, -np.inf), t)


def _equal_neighbours(bits, order, at, block=256):
    """Whether rows order[at] and order[at + 1] are bitwise equal, `block` pairs at a time to stay in cache."""
    equal = np.empty(len(at), dtype=bool)
    for start in range(0, len(at), block):
        pair = at[start:start + block]
        equal[start:start + block] = (bits[order[pair]] == bits[order[pair + 1]]).all(axis=1)
    return equal


def _duplicate_groups(z):
    """Each row's group of bitwise-equal rows, groups numbered in order of their lowest row.

    Rows are sorted by an exact projection of their bits, so equal rows tie; only rows whose
    projections tie are compared bit for bit, neighbour with neighbour. A tie run that holds
    unequal rows is sorted lexicographically first, so that its equal rows sit together.
    """
    n, d = z.shape
    bits = z.view(np.uint64)
    proj = bits @ (np.random.default_rng(0).integers(1 << 63, size=d, dtype=np.uint64) | 1)
    order = np.argsort(proj, kind="stable")
    tie = np.flatnonzero(proj[order[1:]] == proj[order[:-1]])
    same = np.zeros(n - 1, dtype=bool)
    same[tie] = _equal_neighbours(bits, order, tie)
    mixed = proj[order[tie[~same[tie]]]]
    if mixed.size:
        run = np.flatnonzero(np.isin(proj[order], mixed))
        rows = order[run]
        order[run] = rows[np.lexsort(tuple(bits[rows].T[::-1]) + (proj[rows],))]
        same[tie] = _equal_neighbours(bits, order, tie)
    first = np.r_[True, ~same]
    rank = np.empty(int(first.sum()), dtype=np.intp)
    rank[np.argsort(order[first])] = np.arange(len(rank))
    group = np.empty(n, dtype=np.intp)
    group[order] = rank[np.cumsum(first) - 1]
    return group


def _qth_largest(r, v, rows, q):
    """The q-th largest of the values `v` of each row 0..rows-1 (`r` ascending); -inf where a row has fewer."""
    counts = np.bincount(r, minlength=rows)
    pad = np.full((rows, max(counts.max(initial=0), q)), -np.inf, dtype=v.dtype)
    pad[r, np.arange(len(r)) - (np.cumsum(counts) - counts)[r]] = v
    return np.partition(pad, -q, axis=1)[:, -q]


class _Frame:
    """Points y[index] set up for a GEMM screen in `dtype` with a rigorous per-pair error bound.

    The key of rows i and j is y_i.y_j - |y_j|^2 / 2 = (|y_i|^2 - |y_i - y_j|^2) / 2,
    so a larger key is a nearer j. One GEMM of the augmented rows
    [y_i, 1, g |y_i|] . [y_j, (g - 1) |y_j|^2 / 2, |y_j|] gives the key plus
    g E_ij, where E_ij = |y_i| |y_j| + |y_j|^2 / 2 bounds the sum of the
    products' magnitudes. g covers the GEMM's d + 4 roundings in `dtype`
    (Higham's gamma) twice over, plus the float64 rounding of the difference
    form that ranks the survivors and of the translation into this frame.
    So the computed value U is never below the exact key of the ranked
    distance minus `slack_i`, and U - 2 g E_ij - slack_i is never above it,
    with room to spare for the float64 arithmetic of these bounds. `slack_i`
    covers underflow, and the ranking's and translation's errors that scale
    with |y_i|^2.
    """

    def __init__(self, y, index, dtype):
        d = y.shape[1]
        info = np.finfo(dtype)
        self.y, self.index, self.dtype = y, index, dtype
        self.sq = np.einsum("ij,ij->i", y, y)[index]
        self.norm = np.sqrt(self.sq)
        self.g = 2 * _gamma(d + 5, info.eps / 2) + 9 * _gamma(2 * d + 10, _U64)
        self.slack = (2 * (d + 3) * info.smallest_normal * info.eps * (1 + self.norm.max())
                      + _gamma(d + 5, _U64) * self.sq)
        self.cols = self._augmented(np.arange(len(index)), (self.g - 1) * self.sq / 2, self.norm)

    def _augmented(self, idx, second, third):
        out = np.empty((len(idx), self.y.shape[1] + 2), dtype=self.dtype)
        for s in range(0, len(idx), 1024):  # gathered in slices, not as one float64 copy
            out[s:s + 1024, :-2] = self.y[self.index[idx[s:s + 1024]]]
        out[:, -2] = second
        out[:, -1] = third
        return out

    def rows(self, idx):
        return self._augmented(idx, 1.0, self.g * self.norm[idx])

    def survivors(self, idx, keys, q):
        """Candidates in `keys` = rows(idx) @ cols.T that include each row's q nearest columns.

        The first threshold is the q-th largest lower bound among every
        STRIDE-th column; columns whose upper bound reaches it survive. A row
        that keeps at most HEAVY columns then takes the q-th largest lower
        bound among them as a second threshold, and its survivors come back
        as pairs (r, c). The other rows come back as positions `heavy`, with
        their survivor counts and the union of their survivors, a column mask.
        """
        n_rows, m = keys.shape
        if m <= q:
            r, c = np.divmod(np.arange(n_rows * m), m)
            return r, c, r[:0], r[:0], np.zeros(m, dtype=bool)
        norm, sq, g, slack = self.norm, self.sq, self.g, self.slack[idx]
        s = STRIDE if m >= STRIDE * q else 1
        low = np.multiply.outer(norm[idx], norm[::s])
        low += sq[::s] / 2
        low *= -2 * g
        low += keys[:, ::s]
        low.partition(-q, axis=1)
        mask = keys >= _floor(low[:, -q] - 2 * slack, self.dtype)[:, None]
        counts = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.uint32)
        heavy = np.flatnonzero(counts > HEAVY)
        union = mask[heavy].any(axis=0)
        mask[heavy] = False
        r, c = np.divmod(np.flatnonzero(mask), m)
        kv = keys[r, c]
        low = kv - 2 * g * (norm[idx[r]] * norm[c] + sq[c] / 2) - slack[r]
        keep = kv >= _floor(_qth_largest(r, low, n_rows, q) - slack, self.dtype)[r]
        return r[keep], c[keep], heavy, counts[heavy], union


def _candidates(z, rep, lo, hi, frame, keys, q):
    """(row - lo, unique row) pairs that include the q nearest unique rows of each of rows lo..hi-1.

    A float32 screen in the frame of the standardized data first. Rows it
    leaves with many candidates, such as members of a cluster of
    near-duplicates that float32 cannot resolve, are screened again in
    float64, in a frame centred on the one with the most candidates, over the
    union of their candidates; that repeats while it removes candidates.
    Rows still left with many are paired with every column of that union.
    """
    np.matmul(frame.rows(np.arange(lo, hi)), frame.cols.T, out=keys)
    r, c, heavy, counts, union = frame.survivors(np.arange(lo, hi), keys, q)
    for _ in range(LOCAL_FRAMES):
        if not heavy.size:
            break
        union[lo + heavy] = True
        cols = np.flatnonzero(union)
        y = z[rep[cols]] - z[rep[lo + heavy[np.argmax(counts)]]]
        local = _Frame(y, np.arange(len(cols)), np.float64)
        at = np.searchsorted(cols, lo + heavy)
        r2, c2, heavy2, counts2, union2 = local.survivors(at, local.rows(at) @ local.cols.T, q)
        if len(r2) + counts2.sum() >= counts.sum():
            break
        r, c = np.r_[r, heavy[r2]], np.r_[c, cols[c2]]
        heavy, counts = heavy[heavy2], counts2
        union = np.zeros(len(rep), dtype=bool)
        union[cols[union2]] = True
    if heavy.size:
        union[lo + heavy] = True
        cols = np.flatnonzero(union)
        r, c = np.r_[r, np.repeat(heavy, len(cols))], np.r_[c, np.tile(cols, len(heavy))]
    order = np.argsort(r, kind="stable")
    return r[order], c[order]


def _knn_label_means_blocked(z, labels, k, block=None):
    """Mean label of each row's k nearest other rows: screen in float32, rank in float64.

    Rank is by the difference form sum_c (z_ic - z_jc)^2, the oracle's
    formula, with ties broken toward the lowest row index. Bitwise-equal rows
    are grouped first and the search runs over one row per group, `block`
    rows at a time: a float32 GEMM screen with a rigorous error bound keeps a
    superset of each row's k + 1 nearest (the row itself included), the
    survivors are ranked exactly, and each surviving group stands for its
    k + 1 lowest rows. A row's neighbours are then its group's k + 1 nearest
    rows without itself, or the first k of them when it is not among them.
    The float32 key block takes about 1 MiB (at least 128 rows).
    """
    n, d = z.shape
    q = k + 1
    group = _duplicate_groups(z)
    members = np.argsort(group, kind="stable")
    count = np.bincount(group)
    start = np.cumsum(count) - count
    m = len(count)
    rep = members[start]
    if block is None:
        block = max(128, (1 << 20) // (4 * m))
    block = min(block, m)
    frame = _Frame(z, rep, np.float32)
    keys = np.empty((block, m), dtype=np.float32)
    nearest = np.empty((m, q), dtype=np.intp)
    step = max(1, (1 << 15) // d)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        r, c = _candidates(z, rep, lo, hi, frame, keys[:hi - lo], q)
        dist = np.empty(len(r))
        for s in range(0, len(r), step):
            diff = z[rep[lo + r[s:s + step]]] - z[rep[c[s:s + step]]]
            dist[s:s + step] = np.einsum("ij,ij->i", diff, diff)
        keep = -dist >= _qth_largest(r, -dist, hi - lo, q)[r]
        r, c, dist = r[keep], c[keep], dist[keep]
        # each surviving group stands for its q lowest rows
        take = np.minimum(count[c], q)
        pair = np.repeat(np.arange(len(r)), take)
        rows = members[start[c[pair]] + np.arange(len(pair)) - np.repeat(np.cumsum(take) - take, take)]
        order = np.lexsort((rows, dist[pair], r[pair]))
        first = np.searchsorted(r[pair][order], np.arange(hi - lo))
        nearest[lo:hi] = rows[order[first[:, None] + np.arange(q)]]
    near = nearest[group]
    own = (near == np.arange(n)[:, None]).any(axis=1)
    near_labels = labels[near]
    return np.where(own, near_labels.sum(axis=1) - labels, near_labels[:, :k].sum(axis=1)) / k


def consistency(ds: TabularDataset, k: int = 5) -> float:
    """Agreement between each record's label and its k nearest neighbors' labels.

    1 - mean |y_i - mean(y of kNN(i))| with Euclidean distance on z-scored
    features, self excluded, distance ties broken toward the lowest row index.
    Unweighted. The squared distance is the float64 sum of squared coordinate
    differences, the oracle's formula; a float32 GEMM with a rigorous error
    bound only screens candidates for it, so the neighbours are exactly the
    ones that formula ranks first (see `_knn_label_means_blocked`). Rows that
    are bitwise equal are searched once as a group.
    """
    if not 1 <= k < ds.n:
        raise UndefinedMetricError(f"consistency needs 1 <= k < n, got k={k}, n={ds.n}")
    z = standardize(ds)[0].features
    labels = ds.labels.astype(np.float64)
    means = _knn_label_means_blocked(z, labels, k)
    return float(1.0 - np.abs(labels - means).mean())


def dataset_metrics(ds: TabularDataset, reference=None) -> DatasetMetrics:
    """The stage-1 bundle, computed in one pass over the dataset; consistency with k = 5.

    `reference` is an earlier (dataset, DatasetMetrics) pair. Consistency depends
    only on features and labels, so a dataset with the reference's labels and
    features bit for bit (RW's output, or DIR's at repair level 0, on their
    original) reuses its consistency instead of making a kNN pass. Labels are
    compared first: transforms that relabel differ there.
    """
    pos, neg = count_labels(ds)
    same = reference is not None and np.array_equal(ds.labels, reference[0].labels) and np.array_equal(
        ds.features.view(np.uint64), reference[0].features.view(np.uint64))
    return DatasetMetrics(
        base_rate=base_rate(ds),
        base_rate_unprivileged=base_rate(ds, group=0),
        base_rate_privileged=base_rate(ds, group=1),
        consistency=reference[1].consistency if same else consistency(ds),
        disparate_impact=disparate_impact(ds),
        statistical_parity_difference=statistical_parity_difference(ds),
        num_positives=pos,
        num_negatives=neg,
        empirical_difference=empirical_difference(ds),
    )
