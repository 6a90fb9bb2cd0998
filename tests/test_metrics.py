"""Metric correctness against hand values and the brute-force oracles."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_metric_fixture
from oracles import (
    oracle_base_rate,
    oracle_classification,
    oracle_consistency,
    oracle_counts,
    oracle_di,
    oracle_empirical_difference,
    oracle_spd,
    oracle_theil,
)

from fairbench.dataset import TabularDataset, standardize
from fairbench.errors import FairbenchWarning, UndefinedMetricError
from fairbench.metrics import (
    base_rate,
    classification_metrics,
    consistency,
    count_labels,
    dataset_metrics,
    disparate_impact,
    empirical_difference,
    statistical_parity_difference,
)
from fairbench.metrics.classification import ClassificationMetrics, ClassificationTable
from fairbench.pipeline import default_grid

TOL = 1e-12


def at_half(y_true, y_pred, protected=None):
    """The stage-2 bundle for hard 0/1 predictions: scores = y_pred at t = 0.5."""
    y_true = np.asarray(y_true)
    protected = np.zeros(len(y_true), dtype=int) if protected is None else protected
    return classification_metrics(y_true, np.asarray(y_pred, dtype=float), 0.5, protected)


def mk(labels, protected, weights=None, features=None):
    labels = np.asarray(labels)
    n = len(labels)
    return TabularDataset(
        features if features is not None else np.arange(n, dtype=float)[:, None],
        labels,
        protected,
        np.ones(n) if weights is None else weights,
        ("f0",) if features is None else tuple(f"f{i}" for i in range(features.shape[1])),
        "fixture",
    )


class TestBaseRate:
    def test_unit_weights_direct_count(self):
        ds = mk([1, 1, 1, 0, 0, 0, 0, 0], [0, 1] * 4)
        assert base_rate(ds) == pytest.approx(0.375, abs=TOL)

    def test_all_positive(self):
        ds = mk([1, 1, 1, 1], [0, 0, 1, 1])
        assert base_rate(ds) == 1.0

    def test_weighted(self):
        ds = mk([1, 0], [0, 1], weights=np.array([3.0, 1.0]))
        assert base_rate(ds) == pytest.approx(0.75, abs=TOL)

    def test_empty_group_error_names_group(self):
        ds = mk([1, 0], [1, 1])
        with pytest.raises(UndefinedMetricError, match="group 0"):
            base_rate(ds, group=0)


class TestDisparateImpactAndSpd:
    def test_identical_rates_one(self):
        ds = mk([1, 0, 1, 0], [0, 0, 1, 1])
        assert disparate_impact(ds) == pytest.approx(1.0, abs=TOL)
        assert statistical_parity_difference(ds) == pytest.approx(0.0, abs=TOL)

    def test_quarter_vs_half(self):
        ds = mk([1, 0, 0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1])
        assert disparate_impact(ds) == pytest.approx(0.5, abs=TOL)

    def test_zero_privileged_rate_sentinel(self):
        ds = mk([1, 0, 0, 0], [0, 0, 1, 1])
        with pytest.warns(FairbenchWarning, match="undefined"):
            assert math.isinf(disparate_impact(ds))

    def test_spd_equals_group_base_rate_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, labels, protected, weights, _ = random_metric_fixture(rng)
            ds = mk(labels, protected, weights)
            expected = base_rate(ds, 0) - base_rate(ds, 1)
            assert statistical_parity_difference(ds) == pytest.approx(expected, abs=TOL)


class TestCounts:
    def test_direct(self):
        assert count_labels(mk([0, 0, 0, 0, 0], [0, 1, 0, 1, 0])) == (0, 5)

    def test_weights_do_not_affect_counts(self):
        ds = mk([1, 1, 0], [0, 1, 0], weights=np.array([5.0, 5.0, 0.1]))
        assert count_labels(ds) == (2, 1)


class TestEmpiricalDifference:
    def test_equal_distributions_approach_zero(self):
        labels = np.array([1] * 300 + [0] * 700 + [1] * 300 + [0] * 700)
        protected = np.array([0] * 1000 + [1] * 1000)
        assert empirical_difference(mk(labels, protected)) <= 2e-3

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            _, labels, protected, weights, _ = random_metric_fixture(rng)
            ds = mk(labels, protected, weights)
            assert empirical_difference(ds) == pytest.approx(
                oracle_empirical_difference(labels.tolist(), protected.tolist()), abs=TOL
            )

    def test_exceeds_log_di_asymptotically(self):
        # german-like group rates: 201/310 vs 499/690
        labels = np.array([1] * 201 + [0] * 109 + [1] * 499 + [0] * 191)
        protected = np.array([0] * 310 + [1] * 690)
        ds = mk(labels, protected)
        ed = empirical_difference(ds)
        assert ed >= abs(math.log(disparate_impact(ds))) - 0.01
        assert ed == pytest.approx(0.239, abs=0.01)

    def test_adult_reference_values_from_group_counts(self):
        # the adult reference group counts (16192 women with 1769 favorable,
        # 32650 men with 9918) pin every label metric without the raw file
        labels = np.concatenate([
            np.ones(1769), np.zeros(16192 - 1769), np.ones(9918), np.zeros(32650 - 9918),
        ]).astype(np.int64)
        protected = np.concatenate([np.zeros(16192), np.ones(32650)]).astype(np.int64)
        ds = mk(labels, protected)
        assert count_labels(ds) == (11687, 37155)
        assert base_rate(ds) == pytest.approx(0.239, abs=0.001)
        assert disparate_impact(ds) == pytest.approx(0.360, abs=0.01)
        assert statistical_parity_difference(ds) == pytest.approx(-0.195, abs=0.005)
        assert empirical_difference(ds) == pytest.approx(1.022, abs=0.02)


class TestConsistency:
    def test_constant_labels_one(self):
        features = np.random.default_rng(0).normal(size=(12, 3))
        assert consistency(mk(np.ones(12, dtype=int), [0, 1] * 6, features=features)) == 1.0

    def test_six_points_on_line_equal_spacing(self):
        # equal spacing standardizes to irrational coordinates, so the exact
        # mid-point ties dissolve in floating point; the contract is agreement
        # with the brute-force oracle under the same (distance, index) order
        features = np.arange(6, dtype=float)[:, None]
        labels = np.array([1, 1, 1, 0, 0, 0])
        ds = mk(labels, [0, 1] * 3, features=features)
        expected = oracle_consistency(features.tolist(), labels.tolist(), 1)
        assert consistency(ds, k=1) == pytest.approx(expected, abs=TOL)

    def test_tie_break_prefers_lowest_index(self):
        # duplicated coordinates tie exactly in floating point; the lower-index
        # neighbor (label 1) must win for both outer points, giving 0 exactly
        # (a higher-index rule would give 0.5)
        features = np.array([0.0, 1.0, 1.0, 2.0])[:, None]
        labels = np.array([0, 1, 0, 0])
        ds = mk(labels, [0, 1, 0, 1], features=features)
        expected = oracle_consistency(features.tolist(), labels.tolist(), 1)
        assert expected == pytest.approx(0.0, abs=TOL)
        assert consistency(ds, k=1) == pytest.approx(expected, abs=TOL)

    def test_six_points_on_line_no_ties(self):
        # spacing chosen so each middle point's nearest neighbor crosses the
        # label boundary: 1 - (2/6) = 2/3
        features = np.array([0.0, 1.0, 2.0, 2.6, 3.4, 4.2])[:, None]
        labels = np.array([1, 1, 1, 0, 0, 0])
        ds = mk(labels, [0, 1] * 3, features=features)
        expected = oracle_consistency(features.tolist(), labels.tolist(), 1)
        assert expected == pytest.approx(2.0 / 3.0, abs=TOL)
        assert consistency(ds, k=1) == pytest.approx(expected, abs=TOL)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            features, labels, protected, _, _ = random_metric_fixture(rng)
            k = int(rng.integers(1, min(5, len(labels) - 1) + 1))
            ds = mk(labels, protected, features=features)
            assert consistency(ds, k=k) == pytest.approx(
                oracle_consistency(features.tolist(), labels.tolist(), k), abs=TOL
            )

    @staticmethod
    def _blocked_consistency(features, labels, k, block):
        from fairbench.metrics.dataset_metrics import _knn_label_means_blocked

        y = np.asarray(labels, dtype=float)
        z = standardize(mk(labels, np.zeros(len(labels)), features=features))[0].features
        means = _knn_label_means_blocked(z, y, k, block=block)
        return float(1.0 - np.abs(y - means).mean())

    def test_blocked_path_matches_oracle(self):
        # several blocks of 64 rows, so distances are assembled block by block
        rng = np.random.default_rng(3)
        features = rng.normal(size=(300, 4))
        labels = rng.integers(0, 2, 300)
        assert self._blocked_consistency(features, labels, 5, block=64) == pytest.approx(
            oracle_consistency(features.tolist(), labels.tolist(), 5), abs=TOL
        )

    def test_blocked_path_survives_tie_groups_beyond_candidate_set(self):
        # duplicate coordinates produce tie groups far larger than the
        # argpartition candidate budget; the spill fallback must keep the
        # lowest-index rule exact
        rng = np.random.default_rng(5)
        features = np.array([[0.0], [1.0], [1.0], [2.0]] * 75)
        labels = rng.integers(0, 2, 300)
        for k in (1, 3, 5):
            assert self._blocked_consistency(features, labels, k, block=32) == pytest.approx(
                oracle_consistency(features.tolist(), labels.tolist(), k), abs=TOL
            )

    def test_duplicate_heavy_one_hot_matches_oracle(self):
        # two one-hot attributes with distinct level frequencies: most rows
        # have exact duplicates, as encoded categorical data does at sizes
        # that fit one block
        rng = np.random.default_rng(7)
        n = 240
        a = rng.permutation(np.repeat([0, 1, 2], [30, 80, 130]))
        b = rng.permutation(np.repeat([0, 1], [70, 170]))
        features = np.column_stack([np.eye(3)[a], np.eye(2)[b]])
        labels = (rng.uniform(size=n) < 0.3 + 0.2 * b).astype(int)
        ds = mk(labels, rng.integers(0, 2, n), features=features)
        for k in (1, 5):
            assert consistency(ds, k=k) == pytest.approx(
                oracle_consistency(features.tolist(), labels.tolist(), k), abs=TOL
            )

    def test_constant_feature_column_tolerated(self):
        features = np.column_stack([np.ones(8), np.arange(8.0)])
        ds = mk([1, 1, 1, 1, 0, 0, 0, 0], [0, 1] * 4, features=features)
        assert 0.0 <= consistency(ds, k=2) <= 1.0

    def test_k_bounds(self):
        ds = mk([1, 0, 1, 0, 1, 0], [0, 1] * 3)
        with pytest.raises(UndefinedMetricError):
            consistency(ds, k=6)


    @staticmethod
    def _one_expression_knn_means(z, labels, k, block=512, extra=32):
        """The kNN label means with each block's distances as one expression, the form the buffers replace."""
        n = z.shape[0]
        sq = (z * z).sum(axis=1)
        means = np.empty(n)
        cand = min(n - 1, k + extra)
        for start in range(0, n, block):
            stop = min(start + block, n)
            d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (z[start:stop] @ z.T)
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
            part = np.sort(np.argpartition(d2, cand - 1, axis=1)[:, :cand], axis=1)
            cand_d = np.take_along_axis(d2, part, axis=1)
            order = np.argsort(cand_d, axis=1, kind="stable")
            sorted_d = np.take_along_axis(cand_d, order, axis=1)
            means[start:stop] = labels[np.take_along_axis(part, order[:, :k], axis=1)].mean(axis=1)
            for r in np.flatnonzero(sorted_d[:, k - 1] >= sorted_d[:, -1]):
                means[start + r] = labels[np.lexsort((np.arange(n), d2[r]))[:k]].mean()
        return means

    def test_buffered_distances_equal_one_expression_form_bit_for_bit(self):
        # duplicate-heavy one-hot rows tie exactly, so equal means pin the
        # lowest-index tie rule; blocks of 64 and the size-derived default
        # (374 rows at n=700) both run, against the parent's 512-row blocks
        from fairbench.metrics.dataset_metrics import _knn_label_means_blocked

        rng = np.random.default_rng(17)
        n = 700
        a = rng.permutation(np.repeat([0, 1, 2, 3], [60, 140, 200, 300]))
        b = rng.permutation(np.repeat([0, 1, 2], [150, 250, 300]))
        features = np.column_stack([np.eye(4)[a], np.eye(3)[b], rng.integers(0, 3, n)])
        labels = rng.integers(0, 2, n)
        z = standardize(mk(labels, np.zeros(n), features=features))[0].features
        y = labels.astype(float)
        for k in (1, 5):
            expected = self._one_expression_knn_means(z, y, k)
            for block in (None, 64):
                assert np.array_equal(_knn_label_means_blocked(z, y, k, block=block), expected), (k, block)

    def test_every_set_of_equal_rows_is_one_group_at_adult_size(self):
        # a float projection rounds by row position, which split some of these sets in two
        from fairbench.metrics.dataset_metrics import _duplicate_groups

        rows = np.random.default_rng(0).standard_normal((50, 105))
        group = _duplicate_groups(rows[np.arange(48842) % 50])
        assert np.array_equal(group, np.arange(48842) % 50)

    def test_unequal_rows_that_share_a_projection_get_groups_of_their_own(self):
        from fairbench.metrics.dataset_metrics import _duplicate_groups

        d = 6
        rng = np.random.default_rng(3)
        # the odd multipliers of the projection: adding m[j] to column i and
        # taking m[i] from column j leaves it unchanged, modulo 2**64
        m = np.random.default_rng(0).integers(1 << 63, size=d, dtype=np.uint64) | 1
        a = rng.integers(1 << 62, size=d, dtype=np.uint64)
        b = a.copy()
        b[1:2] += m[4:5]
        b[4:5] -= m[1:2]
        c = b.copy()
        c[0:1] += m[2:3]
        c[2:3] -= m[0:1]
        assert a @ m == b @ m == c @ m and len({a.tobytes(), b.tobytes(), c.tobytes()}) == 3
        others = rng.integers(1 << 62, size=(4, d), dtype=np.uint64)
        bits = np.vstack([others, a, b, c])[rng.integers(0, 7, 60)]
        group = _duplicate_groups(bits.view(np.float64))
        # every set of equal rows is one group, numbered in order of its lowest row
        _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(group, np.argsort(np.argsort(first))[inverse.ravel()])

    def test_adult_sized_call_peaks_below_16_mib(self):
        # four 512-row (512, n) temporaries per block took 4 x 512 x 4000 x 8 B
        import tracemalloc

        rng = np.random.default_rng(19)
        n, d = 4000, 105
        ds = mk(rng.integers(0, 2, n), rng.integers(0, 2, n), features=rng.integers(0, 2, (n, d)).astype(float))
        tracemalloc.start()
        try:
            consistency(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    @staticmethod
    def _float64_reference_means(z, labels, k):
        """Each row's k nearest other rows by the float64 difference form, ties toward the lowest index."""
        n = len(z)
        means = np.empty(n)
        for i in range(n):
            d2 = ((z - z[i]) ** 2).sum(axis=1)
            d2[i] = np.inf
            means[i] = labels[np.lexsort((np.arange(n), d2))[:k]].mean()
        return means

    @staticmethod
    def _near_tie_line(n, seed):
        # the neighbours i - 1 and i + 1 of row i differ in squared distance by
        # about 1e-11, far below float32's resolution of keys near 1, so only
        # the screen's slack keeps the nearer one
        rng = np.random.default_rng(seed)
        x = np.arange(n) / n + 1e-9 * rng.uniform(-1.0, 1.0, n)
        return x[:, None], rng.integers(0, 2, n)

    def _assert_ranks_like_float64(self, features, labels, ks, block):
        from fairbench.metrics.dataset_metrics import _knn_label_means_blocked

        z = standardize(mk(labels, np.zeros(len(labels)), features=features))[0].features
        y = labels.astype(float)
        for k in ks:
            got = _knn_label_means_blocked(z, y, k, block=block)
            assert np.array_equal(got, self._float64_reference_means(z, y, k)), k

    def test_near_ties_below_float32_resolution_rank_like_float64(self):
        features, labels = self._near_tie_line(400, 23)
        self._assert_ranks_like_float64(features, labels, (1, 3, 5), block=64)

    def test_outlier_column_widens_the_screen_of_its_row(self):
        # one record alone in its category stands sqrt(n - 1) from the rest in
        # that column; its own keys carry errors about 20 times larger
        features, labels = self._near_tie_line(400, 29)
        rare = np.zeros(400)
        rare[137] = 1.0
        features = np.column_stack([features, rare])
        z = standardize(mk(labels, np.zeros(400), features=features))[0].features
        assert np.abs(z[:, 1]).max() == pytest.approx(math.sqrt(399))
        self._assert_ranks_like_float64(features, labels, (1, 3, 5), block=None)
        assert self._blocked_consistency(features, labels, 1, block=None) == pytest.approx(
            oracle_consistency(features.tolist(), labels.tolist(), 1), abs=TOL
        )

    @pytest.mark.parametrize("distinct", [1, 5])
    def test_duplicate_rows_rank_as_groups(self, distinct):
        # all-identical rows, or rows drawn from a few vectors: each group of
        # equal rows is searched once and stands for its lowest rows
        from fairbench.metrics.dataset_metrics import _knn_label_means_blocked

        rng = np.random.default_rng(31)
        vectors = rng.normal(size=(distinct, 62))
        features = vectors[rng.integers(0, distinct, 1000)]
        labels = rng.integers(0, 2, 1000)
        z = standardize(mk(labels, np.zeros(1000), features=features))[0].features
        y = labels.astype(float)
        for k in (1, 5):
            expected = self._one_expression_knn_means(z, y, k)
            assert np.array_equal(_knn_label_means_blocked(z, y, k), expected), k
            assert np.array_equal(_knn_label_means_blocked(z, y, k, block=2), expected), k
            # the loop oracle costs about 10 s at n=1000, so it checks the first 200 rows
            assert self._blocked_consistency(features[:200], labels[:200], k, block=None) == pytest.approx(
                oracle_consistency(features[:200].tolist(), labels[:200].tolist(), k), abs=TOL
            )


class TestGroupConfusion:
    """Per-group and pooled confusion rates, read from the bundle's group_rates."""

    def test_perfect_predictions(self):
        y = np.array([1, 0, 1, 0])
        rates = at_half(y, y, np.array([0, 0, 1, 1])).group_rates
        for g in (0, 1, "all"):
            assert rates[g]["tpr"] == 1.0
            assert rates[g]["fpr"] == 0.0

    def test_all_positive_predictions(self):
        y = np.array([1, 0, 1, 0])
        rates = at_half(y, np.ones(4, dtype=int), np.array([0, 0, 1, 1])).group_rates
        assert rates["all"]["tpr"] == 1.0
        assert rates["all"]["fpr"] == 1.0

    def test_four_cell_unit_weights(self):
        # one group holding (TP, FP, FN, TN) exactly
        y_true = np.array([1, 0, 1, 0])
        y_pred = np.array([1, 1, 0, 0])
        rates = at_half(y_true, y_pred).group_rates
        assert rates[0]["tpr"] == 0.5
        assert rates[0]["fpr"] == 0.5

    def test_zero_denominator_names_group_and_rate(self):
        # one group, no negatives: exactly the rates over negatives are None
        m = at_half(np.array([1, 1]), np.array([1, 0]))
        assert m.group_rates[0] == {"tpr": 0.5, "fpr": None, "tnr": None, "fnr": 0.5}
        assert m.group_rates[1] == dict.fromkeys(("tpr", "fpr", "tnr", "fnr"))
        assert m.balanced_accuracy is None
        assert m.statistical_parity_difference is None
        assert m.disparate_impact is None

    def test_non_binary_inputs_rejected(self):
        y = np.array([1, 0, 1, 0])
        for y_true, protected in ((y + 1, y), (y, np.array([0, 1, 2, 1])), (y - 1, y)):
            with pytest.raises(ValueError, match="must be 0/1"):
                classification_metrics(y_true, np.full(4, 0.5), 0.5, protected)


class TestBundledScalars:
    def test_balanced_accuracy_arithmetic(self):
        y_true = np.array([1] * 5 + [0] * 5)
        # TPR 0.8, TNR 0.6 -> 0.7
        y_pred = np.array([1, 1, 1, 1, 0, 1, 1, 0, 0, 0])
        m = at_half(y_true, y_pred, np.array([0, 1] * 5))
        assert m.balanced_accuracy == pytest.approx(0.7, abs=TOL)

    def test_constant_classifier_half(self):
        y_true = np.array([1, 1, 0, 0, 1, 0])
        m = at_half(y_true, np.ones(6, dtype=int), np.array([0, 1] * 3))
        assert m.balanced_accuracy == pytest.approx(0.5, abs=TOL)

    def test_equal_opportunity_difference(self):
        y_true = np.array([1] * 10 + [1] * 10 + [0, 0])
        protected = np.array([0] * 10 + [1] * 10 + [0, 1])
        y_pred = np.concatenate([np.repeat([1, 0], [6, 4]), np.repeat([1, 0], [9, 1]), [0, 0]])
        assert at_half(y_true, y_pred, protected).equal_opportunity_difference == pytest.approx(-0.3, abs=TOL)

    def test_average_odds_difference_hand_case(self):
        # TPR diff -0.2 and FPR diff +0.1 -> -0.05
        y_true = np.array([1] * 10 + [0] * 10 + [1] * 10 + [0] * 10)
        protected = np.array([0] * 20 + [1] * 20)
        y_pred = np.concatenate([
            np.repeat([1, 0], [6, 4]), np.repeat([1, 0], [3, 7]),
            np.repeat([1, 0], [8, 2]), np.repeat([1, 0], [2, 8]),
        ])
        assert at_half(y_true, y_pred, protected).average_odds_difference == pytest.approx(-0.05, abs=TOL)

    def test_perfect_classifier_zero_differences(self):
        # hard predictions equal to the labels, groups of unequal base rate
        y = np.array([1, 0, 1, 0, 1, 0])
        m = at_half(y, y, np.array([0, 0, 0, 1, 1, 1]))
        assert m.equal_opportunity_difference == 0.0
        assert m.average_odds_difference == 0.0


class TestTheil:
    def test_perfect_predictions_zero(self):
        y = np.array([1, 0, 1, 1, 0])
        assert at_half(y, y).theil_index == 0.0

    def test_hand_case_ln2(self):
        # b = (0, 1), mean 0.5: (1/2)(0 + 2 ln 2) = ln 2
        assert at_half(np.array([1, 0]), np.array([0, 0])).theil_index == pytest.approx(math.log(2), abs=TOL)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        y_true = rng.integers(0, 2, 15)
        y_pred = rng.integers(0, 2, 15)
        base = at_half(y_true, y_pred).theil_index
        perm = rng.permutation(15)
        assert at_half(y_true[perm], y_pred[perm]).theil_index == pytest.approx(base, abs=TOL)

    def test_degenerate_all_false_negatives(self):
        with pytest.warns(FairbenchWarning, match="degenerate"):
            assert at_half(np.ones(4), np.zeros(4)).theil_index == 0.0

    def test_nonnegative_zero_iff_equal_benefits(self):
        rng = np.random.default_rng(5)
        # the random draws, then all benefits 2 (every prediction a false positive)
        cases = [(rng.integers(0, 2, 12), rng.integers(0, 2, 12)) for _ in range(30)]
        cases.append((np.zeros(12, dtype=int), np.ones(12, dtype=int)))
        for y_true, y_pred in cases:
            value = at_half(y_true, y_pred).theil_index
            assert value >= 0.0
            benefits = y_pred - y_true + 1
            if len(np.unique(benefits)) == 1:
                assert value == 0.0
            else:
                assert value > 0.0


class TestBundles:
    def test_dataset_bundle_fields_cohere(self, tiny_dataset):
        m = dataset_metrics(tiny_dataset)
        assert m.num_positives + m.num_negatives == tiny_dataset.n
        assert m.statistical_parity_difference == pytest.approx(
            m.base_rate_unprivileged - m.base_rate_privileged, abs=TOL
        )
        assert m.disparate_impact == pytest.approx(
            m.base_rate_unprivileged / m.base_rate_privileged, abs=TOL
        )

    def test_reference_consistency_is_reused_only_for_the_same_bits(self):
        rng = np.random.default_rng(11)
        features = rng.normal(size=(40, 3))
        features[0, 0] = 0.0
        labels = rng.integers(0, 2, 40)
        original = mk(labels, [0, 1] * 20, features=features)
        # a marker no kNN pass gives here, so a reused value shows
        reference = (original, dataclasses.replace(dataset_metrics(original), consistency=0.125))

        def measured(ds):
            return dataset_metrics(ds, reference=reference).consistency

        # equal content in fresh arrays, with other groups and weights
        assert measured(mk(labels.copy(), [1, 0] * 20, weights=np.full(40, 2.0), features=features.copy())) == 0.125
        flipped = mk(1 - labels, [0, 1] * 20, features=features)
        assert measured(flipped) == consistency(flipped) != 0.125
        moved = features.copy()
        moved[5, 1] += 1.0
        assert measured(mk(labels, [0, 1] * 20, features=moved)) == consistency(mk(labels, [0, 1] * 20, features=moved))
        signed = features.copy()
        signed[0, 0] = -0.0  # equal as a number, other bits
        assert measured(mk(labels, [0, 1] * 20, features=signed)) != 0.125

    def test_perfect_scores_bundle(self):
        y = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        protected = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        scores = np.where(y == 1, 0.9, 0.1)
        m = classification_metrics(y, scores, 0.5, protected)
        assert m.balanced_accuracy == 1.0
        assert m.statistical_parity_difference == 0.0
        assert m.equal_opportunity_difference == 0.0
        assert m.average_odds_difference == 0.0
        assert m.theil_index == 0.0

    def test_undefined_field_does_not_void_bundle(self):
        # no negatives in group 0: its fpr is undefined, others still computed
        y_true = np.array([1, 1, 1, 0, 1, 0])
        protected = np.array([0, 0, 0, 1, 1, 1])
        scores = np.array([0.9, 0.2, 0.8, 0.1, 0.7, 0.6])
        m = classification_metrics(y_true, scores, 0.5, protected)
        assert m.group_rates[0]["fpr"] is None
        assert m.average_odds_difference is None
        assert m.balanced_accuracy is not None
        assert m.equal_opportunity_difference is not None

    def test_threshold_validated(self):
        y, scores, protected = np.array([1, 0]), np.array([0.5, 0.5]), np.array([0, 1])
        for threshold in (1.0, 0.0, -0.2, math.nan, [0.5, 1.0], (0.2, math.nan), [[0.5]], "0.5", None):
            with pytest.raises(ValueError, match="threshold"):
                classification_metrics(y, scores, threshold, protected)

    def test_inputs_validated(self):
        y, scores, protected = np.array([1, 0, 1]), np.array([0.2, 0.6, 0.9]), np.array([0, 1, 1])
        cases = (
            ("at least one record", np.array([], dtype=int), np.array([]), np.array([], dtype=int), None),
            ("equal lengths", y, scores[:2], protected, None),
            ("equal lengths", y, scores, protected[:2], None),
            ("weights length", y, scores, protected, np.ones(2)),
        )
        for message, y_true, s, p, w in cases:
            for threshold in (0.5, default_grid()):
                with pytest.raises(ValueError, match=message):
                    classification_metrics(y_true, s, threshold, p, w)


class TestThresholdVector:
    def test_every_grid_threshold_matches_oracle(self):
        # scores sitting exactly on grid points, between them, NaN and +-inf
        rng = np.random.default_rng(24)
        grid = default_grid()
        for _ in range(20):
            n = int(rng.integers(8, 40))
            labels = rng.integers(0, 2, n)
            protected = rng.integers(0, 2, n)
            weights = rng.uniform(0.2, 3.0, n)
            scores = np.where(rng.uniform(size=n) < 0.5, rng.integers(1, 100, n) / 100.0, rng.uniform(size=n))
            scores[rng.choice(n, 3, replace=False)] = (math.nan, math.inf, -math.inf)
            for w in (None, weights):
                table = classification_metrics(labels, scores, grid, protected, w)
                assert len(table) == len(grid) and table.thresholds == list(grid)
                ref_weights = (np.ones(n) if w is None else w).tolist()
                for k, t in enumerate(grid):
                    ours = table.at(k)
                    ref = oracle_classification(labels.tolist(), scores.tolist(), t, protected.tolist(), ref_weights)
                    for field in ("balanced_accuracy", "statistical_parity_difference",
                                  "equal_opportunity_difference", "average_odds_difference", "theil_index"):
                        want, got = ref[field], getattr(ours, field)
                        if want is None:
                            assert got is None, (t, field)
                        else:
                            assert got == pytest.approx(want, abs=TOL), (t, field)
                    want, got = ref["disparate_impact"], ours.disparate_impact
                    if math.isfinite(want):
                        assert got == pytest.approx(want, abs=TOL), t
                    else:
                        assert math.isnan(got) if math.isnan(want) else got == want, t
                    for g in (0, 1, "all"):
                        for rate, want in ref["rates"][g].items():
                            got = ours.group_rates[g][rate]
                            assert got is None if want is None else got == pytest.approx(want, abs=TOL), (t, g)

    def test_unsorted_duplicates_in_input_order(self):
        y, scores, protected = (np.array(v) for v in ([1, 0, 1, 0, 1, 1], [0.7, 0.2, 0.45, 0.9, 0.1, 0.2], [0, 0, 1, 1, 0, 1]))
        thresholds = [0.7, 0.2, 0.7, 0.45, 0.2, 0.05]
        table = classification_metrics(y, scores, thresholds, protected)
        assert isinstance(table, ClassificationTable)
        assert table.thresholds == thresholds
        bundles = [table.at(k) for k in range(len(thresholds))]
        assert bundles == [classification_metrics(y, scores, t, protected) for t in thresholds]
        assert bundles[0] == bundles[2] and bundles[1] == bundles[4]
        assert bundles[0] != bundles[1]
        assert classification_metrics(y, scores, np.array(thresholds), protected) == table

    def test_scalar_shapes_give_one_bundle(self):
        # a 0-d threshold takes the grid path too; np.unique's inverse for it is 0-d on some numpy versions
        y, scores, protected = (np.array(v) for v in ([1, 0, 1, 0, 1, 1], [0.7, 0.2, 0.45, 0.9, 0.1, 0.2],
                                                      [0, 0, 1, 1, 0, 1]))
        from_float = classification_metrics(y, scores, 0.45, protected)
        assert type(from_float) is ClassificationMetrics
        assert classification_metrics(y, scores, np.array(0.45), protected) == from_float
        from_list = classification_metrics(y, scores, [0.45], protected)
        assert len(from_list) == 1 and from_list.at(0) == from_float


class TestOracleEquivalence:
    """Brute-force agreement to 1e-12 on 50 random fixtures with n <= 20."""

    def test_dataset_metrics_against_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            features, labels, protected, weights, _ = random_metric_fixture(rng)
            ds = mk(labels, protected, weights, features=features)
            for group in (None, 0, 1):
                assert base_rate(ds, group) == pytest.approx(
                    oracle_base_rate(labels.tolist(), protected.tolist(), weights.tolist(), group), abs=TOL
                )
            assert statistical_parity_difference(ds) == pytest.approx(
                oracle_spd(labels.tolist(), protected.tolist(), weights.tolist()), abs=TOL
            )
            di = disparate_impact(ds)
            odi = oracle_di(labels.tolist(), protected.tolist(), weights.tolist())
            if math.isfinite(odi):
                assert di == pytest.approx(odi, abs=TOL)
            else:
                assert not math.isfinite(di)
            assert count_labels(ds) == oracle_counts(labels.tolist())
            assert empirical_difference(ds) == pytest.approx(
                oracle_empirical_difference(labels.tolist(), protected.tolist()), abs=TOL
            )
            k = int(rng.integers(1, 4))
            assert consistency(ds, k=k) == pytest.approx(
                oracle_consistency(features.tolist(), labels.tolist(), k), abs=TOL
            )

    def test_classification_metrics_against_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            _, labels, protected, weights, scores = random_metric_fixture(rng, require_group_confusions=True)
            threshold = float(rng.integers(1, 100)) / 100.0
            ours = classification_metrics(labels, scores, threshold, protected, weights)
            ref = oracle_classification(
                labels.tolist(), scores.tolist(), threshold, protected.tolist(), weights.tolist()
            )
            for field in ("balanced_accuracy", "statistical_parity_difference",
                          "equal_opportunity_difference", "average_odds_difference", "theil_index"):
                got = getattr(ours, field)
                want = ref[field]
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=TOL), field
            if math.isfinite(ref["disparate_impact"]):
                assert ours.disparate_impact == pytest.approx(ref["disparate_impact"], abs=TOL)
            for g in (0, 1, "all"):
                for rate in ("tpr", "fpr", "tnr", "fnr"):
                    want = ref["rates"][g][rate]
                    got = ours.group_rates[g][rate]
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=TOL)


class TestMetricProperties:
    def test_group_swap_antisymmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            _, labels, protected, weights, scores = random_metric_fixture(rng, require_group_confusions=True)
            ds = mk(labels, protected, weights)
            swapped = mk(labels, 1 - protected, weights)
            assert statistical_parity_difference(swapped) == pytest.approx(
                -statistical_parity_difference(ds), abs=TOL
            )
            di = disparate_impact(ds)
            if math.isfinite(di) and di > 0:
                assert disparate_impact(swapped) == pytest.approx(1.0 / di, abs=TOL)
            m = classification_metrics(labels, scores, 0.5, protected, weights)
            ms = classification_metrics(labels, scores, 0.5, 1 - protected, weights)
            for field in ("statistical_parity_difference", "equal_opportunity_difference",
                          "average_odds_difference"):
                a, b = getattr(m, field), getattr(ms, field)
                if a is not None and b is not None:
                    assert b == pytest.approx(-a, abs=TOL)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(23)
        for scale in (1e-6, 0.5, 3.0, 1e6):
            _, labels, protected, weights, scores = random_metric_fixture(rng, require_group_confusions=True)
            ds = mk(labels, protected, weights)
            scaled = mk(labels, protected, weights * scale)
            assert statistical_parity_difference(scaled) == pytest.approx(
                statistical_parity_difference(ds), abs=TOL
            )
            assert disparate_impact(scaled) == pytest.approx(disparate_impact(ds), abs=TOL)
            m = classification_metrics(labels, scores, 0.3, protected, weights)
            ms = classification_metrics(labels, scores, 0.3, protected, weights * scale)
            for field in ("balanced_accuracy", "statistical_parity_difference",
                          "equal_opportunity_difference", "average_odds_difference"):
                a, b = getattr(m, field), getattr(ms, field)
                if a is not None:
                    assert b == pytest.approx(a, abs=TOL)
