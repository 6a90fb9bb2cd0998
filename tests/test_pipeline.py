"""Two-stage protocol: sweep grid, composite selection, arm isolation, determinism."""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from fairbench.dataset import SplitSpec, cache_load, make_synthetic, schema_from_dict
from fairbench.errors import FairbenchError
from fairbench.metrics import classification_metrics
from fairbench.metrics.classification import ClassificationMetrics
from fairbench.pipeline import (
    default_grid,
    run_bench_stage,
    run_prep_stage,
    select_optimal_threshold,
    sweep_thresholds,
)
from fairbench.pipeline.sweep import SweepRecord


def scored_fixture(seed=0, n=200):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    protected = rng.integers(0, 2, n)
    scores = np.clip(rng.normal(0.3 + 0.4 * y, 0.2), 0.01, 0.99)
    return y, scores, protected


def mk_record(threshold, bal, fairness, metric="SPD"):
    fields = {
        "balanced_accuracy": bal,
        "statistical_parity_difference": 0.0,
        "disparate_impact": 1.0,
        "equal_opportunity_difference": 0.0,
        "average_odds_difference": 0.0,
        "theil_index": 0.0,
        "group_rates": {},
    }
    key = {
        "SPD": "statistical_parity_difference",
        "DI": "disparate_impact",
        "EOD": "equal_opportunity_difference",
        "AOD": "average_odds_difference",
        "Theil": "theil_index",
    }[metric]
    fields[key] = fairness
    return SweepRecord(threshold, ClassificationMetrics(**fields))


class TestSweep:
    def test_default_grid_99_points(self):
        grid = default_grid()
        assert len(grid) == 99
        assert grid[0] == 0.01
        assert grid[-1] == 0.99
        y, scores, protected = scored_fixture()
        records = sweep_thresholds(y, scores, protected)
        assert len(records) == 99

    def test_every_record_equals_one_shot_call(self):
        # bit for bit: unweighted masses are integer counts whichever way they are summed
        y, scores, protected = scored_fixture(seed=1)
        records = sweep_thresholds(y, scores, protected)
        assert [r.threshold for r in records] == list(default_grid())
        for rec in records:
            assert rec.metrics == classification_metrics(y, scores, rec.threshold, protected), rec.threshold

    def test_weighted_grid_call_matches_one_shot_calls(self):
        # weighted masses are summed in another order, so agreement is to rounding
        y, scores, protected = scored_fixture(seed=3)
        weights = np.random.default_rng(3).uniform(0.1, 4.0, len(y))
        bundles = classification_metrics(y, scores, default_grid(), protected, weights)
        for t, grid_m in zip(default_grid(), bundles):
            one_m = classification_metrics(y, scores, t, protected, weights)
            for field in ("balanced_accuracy", "statistical_parity_difference", "disparate_impact",
                          "equal_opportunity_difference", "average_odds_difference", "theil_index"):
                assert getattr(grid_m, field) == pytest.approx(getattr(one_m, field), abs=1e-12), (t, field)
            for g, rates in one_m.group_rates.items():
                assert grid_m.group_rates[g] == pytest.approx(rates, abs=1e-12), (t, g)

    def test_perfect_scores_step_positions(self):
        # positives at 0.9, negatives at 0.1: balanced accuracy 1 on (0.1, 0.9]
        y = np.array([1, 0] * 50)
        protected = np.array([0, 0, 1, 1] * 25)
        scores = np.where(y == 1, 0.9, 0.1)
        records = sweep_thresholds(y, scores, protected)
        for rec in records:
            expected = 1.0 if 0.1 < rec.threshold <= 0.9 else 0.5
            assert rec.metrics.balanced_accuracy == pytest.approx(expected, abs=1e-12), rec.threshold

    def test_tpr_fpr_nonincreasing_in_threshold(self):
        y, scores, protected = scored_fixture(seed=2)
        records = sweep_thresholds(y, scores, protected)
        tpr = [r.metrics.group_rates["all"]["tpr"] for r in records]
        fpr = [r.metrics.group_rates["all"]["fpr"] for r in records]
        assert all(a >= b - 1e-15 for a, b in zip(tpr, tpr[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(fpr, fpr[1:]))

    def test_undefined_carried_not_dropped(self):
        # all-positive group 0 labels: fpr undefined at every threshold
        y = np.array([1, 1, 1, 1, 0, 1, 0, 1, 1, 0])
        protected = np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 1])
        scores = np.linspace(0.05, 0.95, 10)
        records = sweep_thresholds(y, scores, protected)
        assert len(records) == 99
        assert all(r.metrics.group_rates[0]["fpr"] is None for r in records)


class TestSelectOptimal:
    def test_zero_fairness_reduces_to_accuracy_argmax(self):
        records = [mk_record(t, bal, 0.0) for t, bal in ((0.2, 0.6), (0.4, 0.9), (0.6, 0.7))]
        assert select_optimal_threshold(records, "SPD") == 0.4

    def test_tie_goes_to_lower_threshold(self):
        records = [mk_record(0.3, 0.8, 0.1), mk_record(0.6, 0.8, 0.1), mk_record(0.9, 0.5, 0.0)]
        assert select_optimal_threshold(records, "SPD") == 0.3

    def test_three_threshold_composite_fixture(self):
        # composite scores (0.70, 0.72, 0.69): middle wins
        records = [
            mk_record(0.25, 0.80, -0.10),
            mk_record(0.50, 0.75, 0.03),
            mk_record(0.75, 0.74, 0.05),
        ]
        scores = [0.80 - 0.10, 0.75 - 0.03, 0.74 - 0.05]
        assert scores == pytest.approx([0.70, 0.72, 0.69])
        assert select_optimal_threshold(records, "SPD") == 0.50

    def test_di_deviation_is_distance_from_one(self):
        records = [mk_record(0.3, 0.9, 0.5, "DI"), mk_record(0.6, 0.9, 0.98, "DI")]
        assert select_optimal_threshold(records, "DI") == 0.6

    def test_theil_uses_raw_value(self):
        records = [mk_record(0.3, 0.9, 0.2, "Theil"), mk_record(0.6, 0.85, 0.01, "Theil")]
        assert select_optimal_threshold(records, "Theil") == 0.6

    def test_undefined_thresholds_skipped(self):
        records = [mk_record(0.3, 0.9, None), mk_record(0.6, 0.7, 0.0)]
        assert select_optimal_threshold(records, "SPD") == 0.6

    def test_all_undefined_errors(self):
        records = [mk_record(0.3, 0.9, None), mk_record(0.6, 0.7, math.inf)]
        with pytest.raises(FairbenchError, match="undefined"):
            select_optimal_threshold(records, "SPD")

    def test_unknown_metric_rejected(self):
        with pytest.raises(FairbenchError, match="unknown selection metric"):
            select_optimal_threshold([mk_record(0.3, 0.9, 0.0)], "accuracy")


class TestPrepStage:
    def test_rw_on_balanced_synthetic_keeps_weights_one(self, tmp_path):
        ds = make_synthetic(seed=0, n=400, disparity=0.0)
        report = run_prep_stage(ds, None, "RW", {}, seed=1, cache_dir=tmp_path, dataset_name="bal")
        processed = cache_load(report.processed_cache_key, tmp_path)
        assert np.allclose(processed.weights, 1.0, atol=1e-6)
        for field in ("base_rate", "disparate_impact", "statistical_parity_difference"):
            assert getattr(report.processed_metrics, field) == pytest.approx(
                getattr(report.original_metrics, field), abs=1e-6
            )

    def test_dir_label_metrics_equal_original(self, tmp_path):
        ds = make_synthetic(seed=1, n=300, disparity=0.4)
        report = run_prep_stage(ds, None, "DIR", {"repair_level": 1.0}, seed=0,
                                cache_dir=tmp_path, dataset_name="syn")
        orig, proc = report.original_metrics, report.processed_metrics
        assert proc.base_rate == orig.base_rate
        assert proc.disparate_impact == orig.disparate_impact
        assert proc.statistical_parity_difference == orig.statistical_parity_difference
        assert (proc.num_positives, proc.num_negatives) == (orig.num_positives, orig.num_negatives)
        assert proc.empirical_difference == orig.empirical_difference

    def test_original_metrics_method_independent(self, tmp_path):
        ds = make_synthetic(seed=2, n=300, disparity=0.3)
        a = run_prep_stage(ds, None, "RW", {}, seed=5, cache_dir=tmp_path, dataset_name="syn")
        b = run_prep_stage(ds, None, "DIR", {}, seed=5, cache_dir=tmp_path, dataset_name="syn")
        assert a.original_metrics == b.original_metrics
        assert a.original_cache_key == b.original_cache_key

    def test_warm_cache_skips_transform(self, tmp_path, monkeypatch):
        ds = make_synthetic(seed=3, n=200, disparity=0.2)
        first = run_prep_stage(ds, None, "RW", {}, seed=0, cache_dir=tmp_path, dataset_name="syn")

        def boom(*args, **kwargs):
            raise AssertionError("transform re-ran despite warm cache")

        import fairbench.pipeline.stage1 as stage1_mod
        monkeypatch.setattr(stage1_mod, "apply_method", boom)
        second = run_prep_stage(ds, None, "RW", {}, seed=0, cache_dir=tmp_path, dataset_name="syn")
        assert second == first

    def test_same_name_and_seed_with_other_sensitive_attribute_do_not_collide(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        n = 200
        sex = rng.choice(["M", "F"], n)
        age = rng.choice(["old", "young"], n)
        x = rng.normal(size=n)
        income = np.where(x + (sex == "M") > 0.5, "high", "low")
        csv = tmp_path / "toy.csv"
        csv.write_text("x,sex,age_group,income\n" + "".join(
            f"{float(x[i])!r},{sex[i]},{age[i]},{income[i]}\n" for i in range(n)), encoding="utf-8")
        doc = {
            "name": "toy",
            "label": {"column": "income", "favorable": "high"},
            "sensitive_options": {"sex": {"column": "sex", "privileged": ["M"]},
                                  "age": {"column": "age_group", "privileged": ["old"]}},
            "features": {"numeric": ["x"]},
        }
        cache = tmp_path / "cache"
        by_sex = run_prep_stage(csv, schema_from_dict(doc, sensitive="sex"), "RW", seed=0,
                                cache_dir=cache, dataset_name="toy")
        by_age = run_prep_stage(csv, schema_from_dict(doc, sensitive="age"), "RW", seed=0,
                                cache_dir=cache, dataset_name="toy")
        assert by_sex.original_cache_key != by_age.original_cache_key
        assert by_sex.processed_cache_key != by_age.processed_cache_key

        import fairbench.pipeline.stage2 as stage2_mod
        loaded = []
        monkeypatch.setattr(stage2_mod, "cache_load",
                            lambda key, root: loaded.append(cache_load(key, root)) or loaded[-1])
        run_bench_stage(by_sex, split_spec=SplitSpec(seed=0), cache_dir=cache)
        assert np.array_equal(loaded[0].protected, (sex == "M").astype(np.int64))

    def test_prepared_original_gives_the_same_report_without_a_knn_pass(self, tmp_path, monkeypatch):
        from fairbench.pipeline.stage1 import prepare_original

        # the module, not the function that `fairbench.metrics` re-exports under its name
        dm = importlib.import_module("fairbench.metrics.dataset_metrics")
        ds = make_synthetic(seed=10, n=300, disparity=0.3)
        prepared = prepare_original(ds, None, tmp_path, "syn")
        expected = {method: run_prep_stage(ds, None, method, {}, seed=1, cache_dir=tmp_path / "direct",
                                           dataset_name="syn") for method in ("RW", "DIR")}
        # a fresh process: nothing memoized, and the original comes from the cache entry
        monkeypatch.setattr(dm, "_CONSISTENCY_MEMO", {})
        knn_calls = []
        knn = dm._knn_label_means_blocked
        monkeypatch.setattr(dm, "_knn_label_means_blocked", lambda *a, **kw: knn_calls.append(1) or knn(*a, **kw))
        assert run_prep_stage(prepared, None, "RW", {}, seed=1, cache_dir=tmp_path) == expected["RW"]
        assert knn_calls == []  # RW keeps the original's features and labels
        assert run_prep_stage(prepared, None, "DIR", {}, seed=1, cache_dir=tmp_path) == expected["DIR"]
        assert knn_calls == [1]

    def test_prepared_original_needs_its_cache_entry(self, tmp_path):
        from fairbench.pipeline.stage1 import prepare_original

        prepared = prepare_original(make_synthetic(seed=11, n=100, disparity=0.2), None, tmp_path, "syn")
        with pytest.raises(FairbenchError, match="no longer readable"):
            run_prep_stage(prepared, None, "RW", {}, cache_dir=tmp_path / "elsewhere")

    def test_unknown_method_rejected(self, tmp_path):
        ds = make_synthetic(seed=0, n=50, disparity=0.0)
        with pytest.raises(FairbenchError, match="unknown method"):
            run_prep_stage(ds, None, "SMOTE", {}, cache_dir=tmp_path)

    def test_report_round_trip(self, tmp_path):
        ds = make_synthetic(seed=4, n=200, disparity=0.3)
        report = run_prep_stage(ds, None, "RW", {}, seed=2, cache_dir=tmp_path, dataset_name="syn")
        from fairbench.pipeline import StageOneReport
        assert StageOneReport.from_dict(report.to_dict()) == report


class TestBenchStage:
    def test_arms_share_split_indices_and_are_deterministic(self, tmp_path):
        ds = make_synthetic(seed=5, n=600, disparity=0.4)
        report = run_prep_stage(ds, None, "RW", {}, seed=3, cache_dir=tmp_path, dataset_name="syn")
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=3), cache_dir=tmp_path)
        assert bench.original.split_hash == bench.processed.split_hash
        assert len(bench.original.validation) == 99
        assert len(bench.original.test) == 99
        assert bench.original.optimal_threshold in default_grid()

        again = run_bench_stage(report, split_spec=SplitSpec(seed=3), cache_dir=tmp_path)
        assert dataclasses.asdict(again.original) == dataclasses.asdict(bench.original)
        assert dataclasses.asdict(again.processed) == dataclasses.asdict(bench.processed)

    def test_test_at_optimal_consistent_with_records(self, tmp_path):
        ds = make_synthetic(seed=6, n=500, disparity=0.3)
        report = run_prep_stage(ds, None, "DIR", {}, seed=1, cache_dir=tmp_path, dataset_name="syn")
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=1), cache_dir=tmp_path)
        for arm in (bench.original, bench.processed):
            rec = next(r for r in arm.test if r.threshold == arm.optimal_threshold)
            assert rec.metrics == arm.test_at_optimal

    def test_arm_failure_isolated(self, tmp_path, monkeypatch):
        ds = make_synthetic(seed=7, n=400, disparity=0.3)
        report = run_prep_stage(ds, None, "RW", {}, seed=2, cache_dir=tmp_path, dataset_name="syn")

        import fairbench.pipeline.stage2 as stage2_mod
        real_fit = stage2_mod.fit_method

        def broken_fit(name, train, params=None, seed=0):
            raise RuntimeError("deliberate transform failure")

        monkeypatch.setattr(stage2_mod, "fit_method", broken_fit)
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=2), cache_dir=tmp_path)
        assert bench.original is not None
        assert bench.processed is None
        assert "deliberate transform failure" in bench.errors["processed"]
        monkeypatch.setattr(stage2_mod, "fit_method", real_fit)

    def test_missing_cache_is_an_error(self, tmp_path):
        ds = make_synthetic(seed=8, n=300, disparity=0.2)
        report = run_prep_stage(ds, None, "RW", {}, seed=0, cache_dir=tmp_path, dataset_name="syn")
        with pytest.raises(FairbenchError, match="not cached"):
            run_bench_stage(report, cache_dir=tmp_path / "elsewhere")

    @pytest.mark.parametrize("method,params", [
        ("LFR", {"prototypes": 4, "max_iter": 150}),
        ("OPP", {"bins": 3, "max_iter": 150}),
    ])
    def test_feature_transforming_arms_run(self, tmp_path, method, params):
        ds = make_synthetic(seed=9, n=300, disparity=0.3)
        report = run_prep_stage(ds, None, method, params, seed=4, cache_dir=tmp_path, dataset_name="syn")
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=4), cache_dir=tmp_path)
        assert bench.errors == {}
        # evaluation splits keep their true labels: test-arm label distribution
        # must match the original test split regardless of the transform
        assert bench.processed.test_at_optimal is not None
