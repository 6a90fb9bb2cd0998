"""Two-stage protocol: sweep grid, composite selection, arm isolation, determinism."""

import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest

from fairbench.dataset import SplitSpec, cache_load, make_synthetic, schema_from_dict
from fairbench.dataset.cache import VERSION, record_load, record_path, record_store
from fairbench.errors import FairbenchError, FairbenchWarning
from fairbench.metrics import classification_metrics
from fairbench.metrics.classification import ClassificationTable
from fairbench.pipeline import (
    default_grid,
    run_bench_stage,
    run_prep_stage,
    select_optimal_threshold,
    sweep_thresholds,
)
from fairbench.pipeline.stage1 import prepare_original
from fairbench.preproc import apply_method

from conftest import flip_first_feature


def scored_fixture(seed=0, n=200):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    protected = rng.integers(0, 2, n)
    scores = np.clip(rng.normal(0.3 + 0.4 * y, 0.2), 0.01, 0.99)
    return y, scores, protected


def mk_table(rows, metric="SPD"):
    """A table of (threshold, balanced accuracy, fairness value) rows; other fairness columns neutral."""
    thresholds, bal, fairness = (list(column) for column in zip(*rows))
    n = len(rows)
    fields = {
        "balanced_accuracy": bal,
        "statistical_parity_difference": [0.0] * n,
        "disparate_impact": [1.0] * n,
        "equal_opportunity_difference": [0.0] * n,
        "average_odds_difference": [0.0] * n,
        "theil_index": [0.0] * n,
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
    return ClassificationTable(thresholds=thresholds, **fields)


class TestSweep:
    def test_default_grid_99_points(self):
        grid = default_grid()
        assert len(grid) == 99
        assert grid[0] == 0.01
        assert grid[-1] == 0.99
        y, scores, protected = scored_fixture()
        table = sweep_thresholds(y, scores, protected)
        assert len(table) == 99

    def test_every_row_equals_one_shot_call(self):
        # bit for bit: unweighted masses are integer counts whichever way they are summed
        y, scores, protected = scored_fixture(seed=1)
        table = sweep_thresholds(y, scores, protected)
        assert table.thresholds == list(default_grid())
        for k, t in enumerate(table.thresholds):
            assert table.at(k) == classification_metrics(y, scores, t, protected), t

    def test_weighted_grid_call_matches_one_shot_calls(self):
        # weighted masses are summed in another order, so agreement is to rounding
        y, scores, protected = scored_fixture(seed=3)
        weights = np.random.default_rng(3).uniform(0.1, 4.0, len(y))
        table = classification_metrics(y, scores, default_grid(), protected, weights)
        for k, t in enumerate(default_grid()):
            grid_m, one_m = table.at(k), classification_metrics(y, scores, t, protected, weights)
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
        table = sweep_thresholds(y, scores, protected)
        for t, accuracy in zip(table.thresholds, table.balanced_accuracy):
            expected = 1.0 if 0.1 < t <= 0.9 else 0.5
            assert accuracy == pytest.approx(expected, abs=1e-12), t

    def test_tpr_fpr_nonincreasing_in_threshold(self):
        y, scores, protected = scored_fixture(seed=2)
        rates = sweep_thresholds(y, scores, protected).group_rates["all"]
        tpr, fpr = rates["tpr"], rates["fpr"]
        assert all(a >= b - 1e-15 for a, b in zip(tpr, tpr[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(fpr, fpr[1:]))

    def test_undefined_carried_not_dropped(self):
        # all-positive group 0 labels: fpr undefined at every threshold
        y = np.array([1, 1, 1, 1, 0, 1, 0, 1, 1, 0])
        protected = np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 1])
        scores = np.linspace(0.05, 0.95, 10)
        table = sweep_thresholds(y, scores, protected)
        assert len(table) == 99
        assert table.group_rates[0]["fpr"] == [None] * 99


class TestSelectOptimal:
    def test_zero_fairness_reduces_to_accuracy_argmax(self):
        table = mk_table([(0.2, 0.6, 0.0), (0.4, 0.9, 0.0), (0.6, 0.7, 0.0)])
        assert select_optimal_threshold(table, "SPD") == 0.4

    def test_tie_goes_to_lower_threshold(self):
        table = mk_table([(0.3, 0.8, 0.1), (0.6, 0.8, 0.1), (0.9, 0.5, 0.0)])
        assert select_optimal_threshold(table, "SPD") == 0.3

    def test_three_threshold_composite_fixture(self):
        # composite scores (0.70, 0.72, 0.69): middle wins
        table = mk_table([
            (0.25, 0.80, -0.10),
            (0.50, 0.75, 0.03),
            (0.75, 0.74, 0.05),
        ])
        scores = [0.80 - 0.10, 0.75 - 0.03, 0.74 - 0.05]
        assert scores == pytest.approx([0.70, 0.72, 0.69])
        assert select_optimal_threshold(table, "SPD") == 0.50

    def test_di_deviation_is_distance_from_one(self):
        table = mk_table([(0.3, 0.9, 0.5), (0.6, 0.9, 0.98)], "DI")
        assert select_optimal_threshold(table, "DI") == 0.6

    def test_theil_uses_raw_value(self):
        table = mk_table([(0.3, 0.9, 0.2), (0.6, 0.85, 0.01)], "Theil")
        assert select_optimal_threshold(table, "Theil") == 0.6

    def test_undefined_thresholds_skipped(self):
        table = mk_table([(0.3, 0.9, None), (0.6, 0.7, 0.0)])
        assert select_optimal_threshold(table, "SPD") == 0.6

    def test_all_undefined_errors(self):
        table = mk_table([(0.3, 0.9, None), (0.6, 0.7, math.inf)])
        with pytest.raises(FairbenchError, match="undefined"):
            select_optimal_threshold(table, "SPD")

    def test_empty_sweep_rejected(self):
        y, scores, protected = scored_fixture()
        empty = classification_metrics(y, scores, [], protected)
        assert len(empty) == 0
        with pytest.raises(FairbenchError, match="empty sweep"):
            select_optimal_threshold(empty, "SPD")

    def test_unknown_metric_rejected(self):
        with pytest.raises(FairbenchError, match="unknown selection metric"):
            select_optimal_threshold(mk_table([(0.3, 0.9, 0.0)]), "accuracy")


class TestPrepStage:
    def test_rw_on_balanced_synthetic_keeps_weights_one(self, tmp_path):
        ds = make_synthetic(seed=0, n=400, disparity=0.0)
        report = run_prep_stage(ds, "RW", {}, seed=1, cache_dir=tmp_path, dataset_name="bal")
        processed = apply_method("RW", ds, {}, 1)
        assert np.allclose(processed.weights, 1.0, atol=1e-6)
        for field in ("base_rate", "disparate_impact", "statistical_parity_difference"):
            assert getattr(report.processed_metrics, field) == pytest.approx(
                getattr(report.original_metrics, field), abs=1e-6
            )

    def test_dir_label_metrics_equal_original(self, tmp_path):
        ds = make_synthetic(seed=1, n=300, disparity=0.4)
        report = run_prep_stage(ds, "DIR", {"repair_level": 1.0}, seed=0,
                                cache_dir=tmp_path, dataset_name="syn")
        orig, proc = report.original_metrics, report.processed_metrics
        assert proc.base_rate == orig.base_rate
        assert proc.disparate_impact == orig.disparate_impact
        assert proc.statistical_parity_difference == orig.statistical_parity_difference
        assert (proc.num_positives, proc.num_negatives) == (orig.num_positives, orig.num_negatives)
        assert proc.empirical_difference == orig.empirical_difference

    def test_original_metrics_method_independent(self, tmp_path):
        ds = make_synthetic(seed=2, n=300, disparity=0.3)
        a = run_prep_stage(ds, "RW", {}, seed=5, cache_dir=tmp_path, dataset_name="syn")
        b = run_prep_stage(ds, "DIR", {}, seed=5, cache_dir=tmp_path, dataset_name="syn")
        assert a.original_metrics == b.original_metrics
        assert a.original_cache_key == b.original_cache_key

    @pytest.mark.parametrize("method, params", [
        ("RW", {}), ("DIR", {}), ("LFR", {"prototypes": 4, "max_iter": 100}), ("OPP", {"bins": 3, "max_iter": 100}),
    ])
    def test_warm_cache_skips_transform(self, tmp_path, monkeypatch, method, params):
        ds = make_synthetic(seed=3, n=200, disparity=0.2)
        first = run_prep_stage(ds, method, params, seed=0, cache_dir=tmp_path, dataset_name="syn")

        def boom(*args, **kwargs):
            raise AssertionError("transform or kNN pass re-ran despite warm cache")

        import fairbench.pipeline.stage1 as stage1_mod
        monkeypatch.setattr(stage1_mod, "apply_method", boom)
        monkeypatch.setattr(importlib.import_module("fairbench.metrics.dataset_metrics"), "consistency", boom)
        # the preparation reads its metrics back too, here and in a direct call
        second = run_prep_stage(ds, method, params, seed=0, cache_dir=tmp_path, dataset_name="syn")
        assert second == first
        assert prepare_original(ds, None, tmp_path, "syn").metrics == first.original_metrics

    @pytest.mark.parametrize("record", ["original", "processed"])
    @pytest.mark.parametrize("damage", ["digit", "truncated", "version"])
    def test_a_damaged_record_is_recomputed_and_rewritten(self, tmp_path, record, damage):
        ds = make_synthetic(seed=4, n=200, disparity=0.3)
        first = run_prep_stage(ds, "DIR", {}, seed=0, cache_dir=tmp_path, dataset_name="syn")
        path = record_path(tmp_path, getattr(first, f"{record}_cache_key"))
        blob = path.read_bytes()
        if damage == "digit":
            at = blob.index(b'"num_positives":') + len(b'"num_positives":')
            path.write_bytes(blob[:at] + (b"2" if blob[at:at + 1] != b"2" else b"3") + blob[at + 1:])
        elif damage == "truncated":
            path.write_bytes(blob[:len(blob) // 2])
        else:
            path.write_bytes(blob.replace(f'"version":{VERSION}'.encode(), f'"version":{VERSION - 1}'.encode()))
        with pytest.warns(FairbenchWarning, match=f"ignoring unreadable cache entry .*{path.name}"):
            second = run_prep_stage(ds, "DIR", {}, seed=0, cache_dir=tmp_path, dataset_name="syn")
        assert second == first
        assert path.read_bytes() == blob

    @pytest.mark.parametrize("record", ["original", "processed"])
    @pytest.mark.parametrize("change, match", [
        ("added", r"its fields: unknown keys \['consistency_k'\]"),
        ("dropped", r"its fields lacks \['consistency'\]"),
        ("mistyped", r"its fields\.num_positives must be an integer, got '12'"),
    ], ids=["added", "dropped", "mistyped"])
    def test_a_record_of_other_fields_is_recomputed_and_rewritten(self, tmp_path, record, change, match):
        # its fields hash to its sha256, but they are not DatasetMetrics's
        ds = make_synthetic(seed=4, n=200, disparity=0.3)
        first = run_prep_stage(ds, "DIR", {}, seed=0, cache_dir=tmp_path, dataset_name="syn")
        key = getattr(first, f"{record}_cache_key")
        blob = record_path(tmp_path, key).read_bytes()
        fields = record_load(key, tmp_path, dict)
        record_store({"added": dict(fields, consistency_k=5),
                      "dropped": {k: v for k, v in fields.items() if k != "consistency"},
                      "mistyped": dict(fields, num_positives="12")}[change], key, tmp_path)
        with pytest.warns(FairbenchWarning, match=f"ignoring unreadable cache entry .*{key}.*{match}"):
            second = run_prep_stage(ds, "DIR", {}, seed=0, cache_dir=tmp_path, dataset_name="syn")
        assert second == first
        assert record_path(tmp_path, key).read_bytes() == blob

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
        by_sex, by_age = (
            run_prep_stage(prepare_original(csv, schema_from_dict(doc, sensitive=attr), cache, "toy"), "RW",
                           seed=0, cache_dir=cache)
            for attr in ("sex", "age"))
        assert by_sex.original_cache_key != by_age.original_cache_key
        assert by_sex.processed_cache_key != by_age.processed_cache_key

        # stage 2 reads the original through stage 1's reader
        import fairbench.pipeline.stage1 as stage1_mod
        loaded = []
        monkeypatch.setattr(stage1_mod, "cache_load",
                            lambda key, root, **kw: loaded.append(cache_load(key, root, **kw)) or loaded[-1])
        run_bench_stage(by_sex, split_spec=SplitSpec(seed=0), cache_dir=cache)
        assert np.array_equal(loaded[0].protected, (sex == "M").astype(np.int64))

    def test_prepared_original_gives_the_same_report_without_a_knn_pass(self, tmp_path, monkeypatch):
        # the module, not the function that `fairbench.metrics` re-exports under its name
        dm = importlib.import_module("fairbench.metrics.dataset_metrics")
        ds = make_synthetic(seed=10, n=300, disparity=0.3)
        cases = {"RW": ("RW", {}), "DIR": ("DIR", {}), "DIR0": ("DIR", {"repair_level": 0.0})}
        expected = {}
        for case, (method, params) in cases.items():
            report = run_prep_stage(ds, method, params, seed=1, cache_dir=tmp_path / "direct",
                                    dataset_name="syn")
            # a reused consistency is the one a kNN pass over the processed dataset gives
            assert report.processed_metrics == dm.dataset_metrics(apply_method(method, ds, params, 1))
            expected[case] = report
        prepared = prepare_original(ds, None, tmp_path, "syn")
        knn_calls = []
        knn = dm._knn_label_means_blocked
        monkeypatch.setattr(dm, "_knn_label_means_blocked", lambda *a, **kw: knn_calls.append(1) or knn(*a, **kw))

        def run(case):
            method, params = cases[case]
            return run_prep_stage(prepared, method, params, seed=1, cache_dir=tmp_path)

        assert run("RW") == expected["RW"]
        assert run("RW") == expected["RW"]  # warm: read from its record
        assert run("DIR0") == expected["DIR0"]
        assert knn_calls == []  # RW, and DIR at level 0, keep the original's features and labels
        assert run("DIR") == expected["DIR"]
        assert knn_calls == [1]

    def test_prepared_original_needs_its_cache_entry(self, tmp_path):
        prepared = prepare_original(make_synthetic(seed=11, n=100, disparity=0.2), None, tmp_path, "syn")
        with pytest.raises(FairbenchError, match="no longer readable"):
            run_prep_stage(prepared, "RW", {}, cache_dir=tmp_path / "elsewhere")

    def test_unknown_method_rejected(self, tmp_path):
        ds = make_synthetic(seed=0, n=50, disparity=0.0)
        with pytest.raises(FairbenchError, match="unknown method"):
            run_prep_stage(ds, "SMOTE", {}, cache_dir=tmp_path)

    def test_report_round_trip(self, tmp_path):
        ds = make_synthetic(seed=4, n=200, disparity=0.3)
        report = run_prep_stage(ds, "RW", {}, seed=2, cache_dir=tmp_path, dataset_name="syn")
        from fairbench.pipeline import StageOneReport
        assert StageOneReport.from_dict(report.to_dict()) == report


class TestBenchStage:
    def test_arms_share_split_indices_and_are_deterministic(self, tmp_path):
        ds = make_synthetic(seed=5, n=600, disparity=0.4)
        report = run_prep_stage(ds, "RW", {}, seed=3, cache_dir=tmp_path, dataset_name="syn")
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=3), cache_dir=tmp_path)
        assert bench.original.split_hash == bench.processed.split_hash
        assert len(bench.original.validation) == 99
        assert len(bench.original.test) == 99
        assert bench.original.optimal_threshold in default_grid()

        again = run_bench_stage(report, split_spec=SplitSpec(seed=3), cache_dir=tmp_path)
        assert dataclasses.asdict(again.original) == dataclasses.asdict(bench.original)
        assert dataclasses.asdict(again.processed) == dataclasses.asdict(bench.processed)

    def test_test_at_optimal_equals_one_shot_call_on_test_split(self, tmp_path):
        from fairbench.model import fit_model
        from fairbench.pipeline.stage2 import split_original
        from fairbench.preproc import fit_method

        ds = make_synthetic(seed=6, n=500, disparity=0.3)
        report = run_prep_stage(ds, "DIR", {}, seed=1, cache_dir=tmp_path, dataset_name="syn")
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=1), cache_dir=tmp_path)
        _, (train, _, test) = split_original(ds, SplitSpec(seed=1))
        fitted = fit_method("DIR", train, {}, 1)
        arms = ((bench.original, train, test), (bench.processed, fitted.train, fitted.transform_eval(test)))
        for arm, fit_on, scored in arms:
            scores = fit_model("logreg", fit_on, None, 1).score(scored)
            one_shot = classification_metrics(scored.labels, scores, arm.optimal_threshold, scored.protected)
            assert arm.test_at_optimal == one_shot, arm.arm

    def test_sweeps_weigh_each_split_by_its_weights(self, tmp_path):
        # rates follow the weighted convention in stage 2 as in stage 1
        from fairbench.model import fit_model
        from fairbench.pipeline.stage2 import split_original
        from fairbench.preproc import fit_method

        ds = make_synthetic(seed=6, n=500, disparity=0.3)
        ds = ds.replace(weights=np.random.default_rng(2).uniform(0.2, 5.0, ds.n))
        report = run_prep_stage(ds, "DIR", {}, seed=1, cache_dir=tmp_path, dataset_name="syn")
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=1), cache_dir=tmp_path)
        _, (train, validation, test) = split_original(ds, SplitSpec(seed=1))
        fitted = fit_method("DIR", train, {}, 1)
        for arm, fit_on, transform in ((bench.original, train, lambda split: split),
                                       (bench.processed, fitted.train, fitted.transform_eval)):
            scorer = fit_model("logreg", fit_on, None, 1)
            for split, table in ((validation, arm.validation), (test, arm.test)):
                split = transform(split)
                scores = scorer.score(split)
                # compared as reprs, in which DI's 0/0 sentinel (nan) equals itself
                weighted, unweighted = (repr(classification_metrics(split.labels, scores, default_grid(),
                                                                    split.protected, w))
                                        for w in (split.weights, None))
                assert repr(table) == weighted != unweighted, arm.arm

    @pytest.mark.parametrize("stage", ["prep", "bench"])
    def test_a_changed_original_entry_is_refused_not_used(self, tmp_path, stage):
        prepared = prepare_original(make_synthetic(seed=8, n=300, disparity=0.3), None, tmp_path, "syn")
        report = run_prep_stage(prepared, "DIR", {}, seed=1, cache_dir=tmp_path)
        entry = tmp_path / f"{prepared.cache_key}.fpds"
        flip_first_feature(entry)  # still parses, with one feature changed
        with pytest.warns(FairbenchWarning, match=f"{entry.name}: its content no longer hashes to its key"):
            with pytest.raises(FairbenchError, match="no longer readable|not cached"):
                if stage == "prep":
                    run_prep_stage(prepared, "RW", {}, seed=1, cache_dir=tmp_path)
                else:
                    run_bench_stage(report, split_spec=SplitSpec(seed=1), cache_dir=tmp_path)

    def test_arm_failure_isolated(self, tmp_path, monkeypatch):
        ds = make_synthetic(seed=7, n=400, disparity=0.3)
        report = run_prep_stage(ds, "RW", {}, seed=2, cache_dir=tmp_path, dataset_name="syn")

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
        report = run_prep_stage(ds, "RW", {}, seed=0, cache_dir=tmp_path, dataset_name="syn")
        with pytest.raises(FairbenchError, match="not cached"):
            run_bench_stage(report, cache_dir=tmp_path / "elsewhere")

    @pytest.mark.parametrize("method,params", [
        ("LFR", {"prototypes": 4, "max_iter": 150}),
        ("OPP", {"bins": 3, "max_iter": 150}),
    ])
    def test_feature_transforming_arms_run(self, tmp_path, method, params):
        ds = make_synthetic(seed=9, n=300, disparity=0.3)
        report = run_prep_stage(ds, method, params, seed=4, cache_dir=tmp_path, dataset_name="syn")
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=4), cache_dir=tmp_path)
        assert bench.errors == {}
        # evaluation splits keep their true labels: test-arm label distribution
        # must match the original test split regardless of the transform
        assert bench.processed.test_at_optimal is not None

    @pytest.mark.parametrize("method,params", [
        ("RW", {}), ("DIR", {}), ("LFR", {"prototypes": 4, "max_iter": 150}), ("OPP", {"bins": 3, "max_iter": 150}),
    ])
    def test_evaluation_splits_keep_their_true_labels(self, method, params):
        from fairbench.preproc import fit_method

        train, split = (make_synthetic(seed=seed, n=300, disparity=0.3) for seed in (9, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FairbenchWarning)
            fitted = fit_method(method, train, params, seed=4)
            out = fitted.transform_eval(split)
        assert np.array_equal(out.labels, split.labels)
        assert np.array_equal(out.protected, split.protected)
