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

from ..errors import DataFormatError, FairbenchWarning, UndefinedMetricError
from ..dataset.tabular import TabularDataset, standardize
from ..util import Settings, setting
from .classification import disparate_impact_ratio

@dataclass(frozen=True)
class DatasetMetrics(Settings):
    """The seven data-level metrics in reporting order."""

    bound_error = DataFormatError
    base_rate: float
    base_rate_unprivileged: float
    base_rate_privileged: float
    consistency: float = setting(least=0, most=1)
    disparate_impact: float
    statistical_parity_difference: float
    num_positives: int = setting(least=0)
    num_negatives: int = setting(least=0)
    empirical_difference: float


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
    return float(disparate_impact_ratio(r0, r1))


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


# a row's first threshold comes from its keys against every STRIDE-th column;
# a row that keeps more than HEAVY columns after it is screened again in a
# frame centred on its cluster, at most LOCAL_FRAMES times per block
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

    The key of rows i and j is y_i.y_j - |y_i|^2 / 2 - |y_j|^2 / 2 = -|y_i - y_j|^2 / 2,
    the same for both rows, so a larger key is a nearer pair. One GEMM of the
    augmented rows [y_i, 1, a_i, g |y_i|] . [y_j, a_j, 1, |y_j|], with
    a_j = (g - 1) |y_j|^2 / 2, gives the key plus g E_ij, where
    E_ij = |y_i| |y_j| + |y_i|^2 / 2 + |y_j|^2 / 2 = (|y_i| + |y_j|)^2 / 2
    bounds the sum of the products' magnitudes. g covers the GEMM's d + 5
    roundings in `dtype` (Higham's gamma) twice over, plus the float64
    rounding of the difference form that ranks the survivors and of the
    translation into this frame, errors at most the float64 gamma of 2 d + 10
    times E_ij. So the computed value U is never below the exact key of the
    ranked distance minus `slack`, and U - 2 g E_ij - slack is never above it,
    with room to spare for the float64 arithmetic of these bounds. `slack`
    covers underflow. As E_ij is symmetric, U_ij bounds the key of row j
    against column i as well as that of row i against column j.
    """

    def __init__(self, y, index, dtype, q):
        d = y.shape[1]
        info = np.finfo(dtype)
        self.y, self.index, self.dtype = y, index, dtype
        self.sq = np.einsum("ij,ij->i", y, y)[index]
        self.norm = np.sqrt(self.sq)
        self.g = 2 * _gamma(d + 6, info.eps / 2) + 9 * _gamma(2 * d + 10, _U64)
        self.slack = 2 * (d + 4) * info.smallest_normal * info.eps * (1 + self.norm.max(initial=0))
        self.a = (self.g - 1) * self.sq / 2
        self.cols = self._augmented(np.arange(len(index)), self.a, 1.0, self.norm)
        self.stride = STRIDE if len(index) >= STRIDE * q else 1

    def _augmented(self, idx, *tail):
        d = self.y.shape[1]
        out = np.empty((len(idx), d + len(tail)), dtype=self.dtype)
        for s in range(0, len(idx), 1024):  # gathered in slices, not as one float64 copy
            out[s:s + 1024, :d] = self.y[self.index[idx[s:s + 1024]]]
        for j, column in enumerate(tail, d):
            out[:, j] = column
        return out

    def rows(self, idx):
        return self._augmented(idx, 1.0, self.a[idx], self.g * self.norm[idx])

    def lower(self, r, c, u):
        """At or below the exact keys of rows r and columns c, whose computed keys are `u`."""
        return u - self.g * (self.norm[r] + self.norm[c]) ** 2 - self.slack

    def threshold(self, idx, sampled, q):
        """At or below the q-th largest exact key of each row idx, from its keys against every stride-th column.

        `sampled` is partitioned in place for its q-th largest key K. Each of the q
        largest is at least K, and its column j lies at a distance D from row i in
        this frame with K <= -D^2 / 2 + 2 g E_ij + slack, where
        E_ij <= (2 |y_i| + D)^2 / 2. So D^2 (1 / 2 - 2 g) <= slack + 8 g |y_i|^2 - K
        bounds D, and through it the largest E_ij of these q columns: K less that
        bound is at or below q exact keys. -inf where fewer than q columns are sampled.
        """
        if sampled.shape[1] < q:
            return np.full(len(idx), -np.inf)
        sampled.partition(-q, axis=1)
        k = sampled[:, -q].astype(np.float64)
        reach = np.sqrt(np.maximum(self.slack + 8 * self.g * self.sq[idx] - k, 0) / (0.5 - 2 * self.g))
        return k - self.g * (2 * self.norm[idx] + reach) ** 2 - self.slack

    def second(self, idx, r, c, u, q):
        """The pairs among (r, c) (positions in idx, `r` ascending) whose computed keys `u` reach
        their row's second threshold: the q-th largest lower bound among its pairs."""
        keep = u >= _floor(_qth_largest(r, self.lower(idx[r], c, u), len(idx), q) - self.slack, np.float64)[r]
        return r[keep], c[keep]

    def survivors(self, idx, keys, q):
        """Candidates in `keys` = rows(idx) @ cols.T that include each row's q nearest columns.

        Columns whose key reaches the row's first threshold, from every STRIDE-th
        column, survive. A row that keeps at most HEAVY columns then takes its second
        threshold, and its survivors come back as pairs (r, c). The other rows come back
        as positions `heavy`, with their survivor counts and the union of their
        survivors, a column mask.
        """
        mask = keys >= _floor(self.threshold(idx, keys[:, ::self.stride].copy(), q) - self.slack, self.dtype)[:, None]
        counts = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.uint32)
        heavy = np.flatnonzero(counts > HEAVY)
        union = mask[heavy].any(axis=0)
        mask[heavy] = False
        r, c = np.divmod(np.flatnonzero(mask), keys.shape[1])
        return self.second(idx, r, c, keys[r, c].astype(np.float64), q) + (heavy, counts[heavy], union)


class _Carried:
    """Pairs (row, column, key) that a tile's column side screened, kept by block until the row's block runs.

    Once a row has carried more than HEAVY columns, its further columns are kept only in
    its block's union mask.
    """

    def __init__(self, m, block):
        self.block = block
        self.counts = np.zeros(m, dtype=np.int64)
        self.pairs = {}
        self.unions = {}

    def add(self, mask, keys, lo, hi):
        """The pairs of rows hi.. (of `mask` and `keys`) and columns lo..hi-1 that `mask` keeps."""
        self.counts[hi:] += np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.uint32)
        over = np.flatnonzero(self.counts[hi:] > HEAVY)
        start = (hi + over) // self.block * self.block
        for s in np.unique(start):
            union = self.unions.setdefault(s, np.zeros(len(self.counts), dtype=bool))
            union[lo:hi] |= mask[over[start == s]].any(axis=0)
        mask[over] = False
        r, c = np.divmod(np.flatnonzero(mask), mask.shape[1])
        u = keys[r, c]
        rc = np.column_stack((r + hi, c + lo)).astype(np.int32)
        starts = range(hi, len(self.counts), self.block)
        edges = np.searchsorted(rc[:, 0], starts)
        for start, a, b in zip(starts, edges, np.r_[edges[1:], len(r)]):
            if b > a:
                parts = self.pairs.setdefault(start, [])
                parts.append((rc[a:b], u[a:b]))
                if len(parts) == 16:  # merged, so that a block holds few arrays and no tile's for long
                    parts[:] = [tuple(map(np.concatenate, zip(*parts)))]

    def take(self, lo, hi):
        """The carried pairs of rows lo..hi-1, their block's union mask (or None) and the rows' carried counts."""
        empty = (np.empty((0, 2), dtype=np.int32), np.empty(0, dtype=np.float32))
        rc, u = map(np.concatenate, zip(empty, *self.pairs.pop(lo, [])))
        return rc[:, 0], rc[:, 1], u, self.unions.pop(lo, None), self.counts[lo:hi]


def _candidates(z, rep, lo, hi, frame, keys, carried, limit, q):
    """(row - lo, unique row) pairs that include the q nearest unique rows of each of rows lo..hi-1.

    A float32 screen in the frame of the standardized data first, over one
    upper-triangle tile: `keys` takes rows lo..hi-1 against columns lo..,
    and a key reaches `limit` of its row, or of its column for rows hi..,
    whose pairs are carried until their block runs. A row's columns below lo
    come from the tiles of earlier blocks. Rows the screen leaves with many
    candidates, such as members of a cluster of near-duplicates that float32
    cannot resolve, are screened again in float64, in a frame centred on the
    one with the most candidates, over the union of their candidates. That
    repeats, up to LOCAL_FRAMES times; a frame that removes no candidates is
    dropped, and the next is centred on the row with the most candidates
    that has not been a centre. Rows still left with many are paired with
    every column of that union.
    """
    m = len(rep)
    idx = np.arange(lo, hi)
    np.matmul(frame.cols[lo:], frame.rows(idx).T, out=keys)
    carried.add(keys[hi - lo:] >= limit[hi:, None], keys[hi - lo:], lo, hi)
    mask = keys >= limit[lo:hi]
    cr, cc, cu, union, counts = carried.take(lo, hi)
    counts = counts + np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.uint32)
    is_heavy = counts > HEAVY
    heavy = np.flatnonzero(is_heavy)
    light = ~is_heavy[cr - lo]
    if heavy.size:
        union = np.zeros(m, dtype=bool) if union is None else union
        union[lo:] |= mask[:, heavy].any(axis=1)
        union[cc[~light]] = True
        mask[:, heavy] = False
        counts = counts[heavy]
    c, r = np.divmod(np.flatnonzero(mask), hi - lo)
    u = np.concatenate((keys[c, r], cu[light]))
    r = np.concatenate((r, cr[light] - lo))
    c = np.concatenate((c + lo, cc[light]))
    order = np.argsort(r.astype(np.min_scalar_type(hi - lo)), kind="stable")  # a radix sort
    r, c = frame.second(idx, r[order], c[order], u[order].astype(np.float64), q)
    if not heavy.size:
        return r, c
    tried = np.zeros(m, dtype=bool)
    for _ in range(LOCAL_FRAMES):
        untried = ~tried[lo + heavy]
        if not untried.any():
            break
        centre = lo + heavy[np.argmax(np.where(untried, counts, 0))]
        tried[centre] = True
        union[lo + heavy] = True
        cols = np.flatnonzero(union)
        y = z[rep[cols]] - z[rep[centre]]
        local = _Frame(y, np.arange(len(cols)), np.float64, q)
        at = np.searchsorted(cols, lo + heavy)
        r2, c2, heavy2, counts2, union2 = local.survivors(at, local.rows(at) @ local.cols.T, q)
        if len(r2) + counts2.sum() >= counts.sum():
            continue
        r, c = np.r_[r, heavy[r2]], np.r_[c, cols[c2]]
        heavy, counts = heavy[heavy2], counts2
        union = np.zeros(m, dtype=bool)
        union[cols[union2]] = True
        if not heavy.size:
            break
    if heavy.size:
        union[lo + heavy] = True
        cols = np.flatnonzero(union)
        r, c = np.r_[r, np.repeat(heavy, len(cols))], np.r_[c, np.tile(cols, len(heavy))]
    order = np.argsort(r, kind="stable")
    return r[order], c[order]


def _ranked(z, rows, r, c, members, start, count, q):
    """The q nearest rows of each of z[rows], ranked from its candidate pairs: row rows[r[i]] against group c[i].

    Pairs are ranked by the float64 difference form, `r` ascending; each surviving
    group stands for its q lowest rows, and ties go to the lowest row.
    """
    dist = np.empty(len(r))
    step = max(1, (1 << 15) // z.shape[1])
    for s in range(0, len(r), step):
        diff = z[rows[r[s:s + step]]] - z[members[start[c[s:s + step]]]]
        dist[s:s + step] = np.einsum("ij,ij->i", diff, diff)
    keep = -dist >= _qth_largest(r, -dist, len(rows), q)[r]
    r, c, dist = r[keep], c[keep], dist[keep]
    take = np.minimum(count[c], q)
    pair = np.repeat(np.arange(len(r)), take)
    near = members[start[c[pair]] + np.arange(len(pair)) - np.repeat(np.cumsum(take) - take, take)]
    order = np.lexsort((near, dist[pair], r[pair]))
    first = np.searchsorted(r[pair][order], np.arange(len(rows)))
    return near[order[first[:, None] + np.arange(q)]]


def _knn_label_means_blocked(z, labels, k, block=None):
    """Mean label of each row's k nearest other rows: screen in float32, rank in float64.

    Rank is by the difference form sum_c (z_ic - z_jc)^2, its terms added in
    `np.einsum("ij,ij->i")` order, with ties broken toward the lowest row
    index. Bitwise-equal rows are grouped first and the search runs over one
    row per group, `block` rows at a time. A float32 GEMM screen with a
    rigorous error bound keeps a superset of each row's k + 1 nearest (the row
    itself included): each row's first threshold comes from one GEMM against
    every STRIDE-th group, run block by block before the screen, and the
    screen itself runs only the upper-triangle tiles, each serving both its
    rows and its columns. A row the screen leaves with exactly k + 1 groups of
    one row each, its own among them, has exactly those as its k + 1 nearest,
    since a tie at the (k + 1)-th distance would have kept more; it skips the
    ranking. The other rows' survivors are ranked exactly, and each surviving
    group stands for its k + 1 lowest rows. A row's neighbours are then its
    group's k + 1 nearest rows without itself, or the first k of them when it
    is not among them. The float32 key block takes about 1 MiB (at least 128
    rows), and serves both the sampled GEMM and the tiles; the candidates
    carried to later blocks take 12 bytes each.
    """
    n = len(z)
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
    frame = _Frame(z, rep, np.float32, q)
    buffer = np.empty(block * m, dtype=np.float32)
    sampled = frame.cols[::frame.stride]
    low = np.empty(m)
    step = min(4 * block, len(buffer) // len(sampled))  # rows per sampled GEMM, which the key block holds
    for lo in range(0, m, step):
        idx = np.arange(lo, min(lo + step, m))
        keys = np.matmul(frame.rows(idx), sampled.T, out=buffer[:len(idx) * len(sampled)].reshape(len(idx), -1))
        low[idx] = frame.threshold(idx, keys, q)
    limit = _floor(low - frame.slack, frame.dtype)
    carried = _Carried(m, block)
    nearest = np.empty((m, q), dtype=np.intp)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        keys = buffer[:(hi - lo) * (m - lo)].reshape(m - lo, hi - lo)
        r, c = _candidates(z, rep, lo, hi, frame, keys, carried, limit, q)
        # the screen keeps every row itself, so q single-row groups are the row's own and its k nearest
        decided = (np.bincount(r, minlength=hi - lo) == q) & (np.bincount(r[count[c] > 1], minlength=hi - lo) == 0)
        pick = decided[r]
        nearest[lo + np.flatnonzero(decided)] = rep[c[pick]].reshape(-1, q)
        ranked = np.flatnonzero(~decided)
        at = np.searchsorted(ranked, r[~pick])
        nearest[lo + ranked] = _ranked(z, rep[lo + ranked], at, c[~pick], members, start, count, q)
    near = nearest[group]
    own = (near == np.arange(n)[:, None]).any(axis=1)
    near_labels = labels[near]
    return np.where(own, near_labels.sum(axis=1) - labels, near_labels[:, :k].sum(axis=1)) / k


def consistency(ds: TabularDataset, k: int = 5) -> float:
    """Agreement between each record's label and its k nearest neighbors' labels.

    1 - mean |y_i - mean(y of kNN(i))| with Euclidean distance on z-scored
    features, self excluded, distance ties broken toward the lowest row index.
    Unweighted. The squared distance is the float64 sum of squared coordinate
    differences, added in `np.einsum("ij,ij->i")` order; a float32 GEMM with a
    rigorous error bound only screens candidates for it, so the neighbours are
    exactly the ones that sum ranks first (see `_knn_label_means_blocked`). The
    screen takes each row's first threshold from a GEMM against every
    STRIDE-th row and computes only the upper-triangle tiles of the key
    matrix; a row it leaves with exactly k + 1 single rows, itself among
    them, skips the float64 ranking. Rows that are bitwise equal are
    searched once as a group.
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
