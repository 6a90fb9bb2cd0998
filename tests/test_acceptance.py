"""Acceptance criteria, one test per criterion.

Each criterion prints a PASS/FAIL/SKIP line (see the hook in conftest.py).
Criteria 1 and 3 need the user-supplied German/Adult raw files and skip with a
message when absent; everything else runs self-contained. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import filecmp
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import random_metric_fixture, raw_file, requires_adult, requires_german
from oracles import (
    oracle_base_rate,
    oracle_classification,
    oracle_consistency,
    oracle_counts,
    oracle_di,
    oracle_empirical_difference,
    oracle_spd,
)

from fairbench.batch import expand_jobs, parse_batch_yaml, run_batch
from fairbench.dataset import (
    SplitSpec,
    TabularDataset,
    encode,
    load_csv,
    load_schema,
    make_synthetic,
    standardize,
)
from fairbench.dataset.recipes import prepare_adult, prepare_german, schema_path
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
from fairbench.pipeline import (
    default_grid,
    run_bench_stage,
    run_prep_stage,
    select_optimal_threshold,
    sweep_thresholds,
)
from fairbench.preproc import (DirConfig, LfrConfig, OppConfig, dir_repair, lfr_fit, lfr_transform, opp_fit,
                               opp_transform, reweigh)


def load_german(tmp_path):
    csv = prepare_german(raw_file("german.data"), tmp_path / "german.csv")
    schema = load_schema(schema_path("german"), sensitive="sex")
    return encode(load_csv(csv, schema), schema)


def load_adult(tmp_path):
    test = raw_file("adult.test")
    csv = prepare_adult(raw_file("adult.data"), tmp_path / "adult.csv", test_path=test)
    schema = load_schema(schema_path("adult"), sensitive="sex")
    return encode(load_csv(csv, schema), schema)


@requires_german
def test_criterion_01_german_exact_reproduction(tmp_path):
    """German Credit stage-1 originals match the reference values."""
    started = time.perf_counter()
    ds = load_german(tmp_path)
    metrics = dataset_metrics(ds)
    elapsed = time.perf_counter() - started
    assert (metrics.num_positives, metrics.num_negatives) == (700, 300)
    assert metrics.base_rate == pytest.approx(0.700, abs=1e-12)
    assert metrics.disparate_impact == pytest.approx(0.897, abs=0.005)
    assert metrics.statistical_parity_difference == pytest.approx(-0.075, abs=0.005)
    assert metrics.empirical_difference == pytest.approx(0.239, abs=0.01)
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_criterion_02_reweighing_universal_property(tmp_path):
    """Post-reweighing weighted DI = 1 and SPD = 0 to 1e-9 on every input."""
    started = time.perf_counter()
    datasets = [
        make_synthetic(seed=0, n=500, disparity=0.4),
        make_synthetic(seed=1, n=1000, disparity=0.1),
        make_synthetic(seed=2, n=240, disparity=0.7),
    ]
    rng = np.random.default_rng(99)
    while len(datasets) < 13:
        features, labels, protected, weights, _ = random_metric_fixture(rng)
        if all(np.any((protected == s) & (labels == y)) for s in (0, 1) for y in (0, 1)):
            datasets.append(TabularDataset(features, labels, protected, weights,
                                           tuple(f"f{i}" for i in range(features.shape[1])), "rnd"))
    if raw_file("german.data"):
        datasets.append(load_german(tmp_path))
    for ds in datasets:
        out = reweigh(ds).dataset
        assert disparate_impact(out) == pytest.approx(1.0, abs=1e-9)
        assert statistical_parity_difference(out) == pytest.approx(0.0, abs=1e-9)
        assert count_labels(out) == count_labels(ds)
    assert time.perf_counter() - started < 5.0


@requires_adult
def test_criterion_03_adult_reproduction(tmp_path):
    """Adult stage-1 originals under the no-row-drop recipe."""
    started = time.perf_counter()
    ds = load_adult(tmp_path)
    metrics = dataset_metrics(ds)
    elapsed = time.perf_counter() - started
    assert (metrics.num_positives, metrics.num_negatives) == (11687, 37155)
    assert metrics.base_rate == pytest.approx(0.239, abs=0.001)
    assert metrics.disparate_impact == pytest.approx(0.360, abs=0.01)
    assert metrics.statistical_parity_difference == pytest.approx(-0.195, abs=0.005)
    assert metrics.empirical_difference == pytest.approx(1.022, abs=0.02)
    assert metrics.consistency == pytest.approx(0.719, abs=0.02)
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"


def test_criterion_04_dir_label_invariance(tmp_path):
    """DIR leaves every label metric byte-identical; full repair matches distributions."""
    datasets = [
        make_synthetic(seed=3, n=400, disparity=0.4),
        make_synthetic(seed=4, n=257, disparity=0.2),
    ]
    if raw_file("german.data"):
        datasets.append(load_german(tmp_path))
    cfg = DirConfig(repair_level=1.0, grid_size=100)
    for ds in datasets:
        out = dir_repair(ds, cfg)
        assert base_rate(out) == base_rate(ds)
        assert disparate_impact(out) == disparate_impact(ds)
        assert statistical_parity_difference(out) == statistical_parity_difference(ds)
        assert count_labels(out) == count_labels(ds)
        assert empirical_difference(out) == empirical_difference(ds)
        # two-sample KS bound at full repair
        min_group = min((ds.protected == 0).sum(), (ds.protected == 1).sum())
        bound = 1.0 / cfg.grid_size + 1.0 / min_group
        for j in range(out.dim):
            col = out.features[:, j]
            if len(np.unique(ds.features[:, j])) <= 2:
                continue
            a = np.sort(col[out.protected == 0])
            b = np.sort(col[out.protected == 1])
            grid = np.sort(np.concatenate([a, b]))
            ks = np.abs(
                np.searchsorted(a, grid, side="right") / len(a)
                - np.searchsorted(b, grid, side="right") / len(b)
            ).max()
            assert ks <= bound + 1e-12

    # the quartet fixture repairs exactly
    quartet = TabularDataset(
        np.array([1.0, 2, 3, 4, 5, 6, 7, 8])[:, None],
        np.array([1, 0, 1, 0, 1, 0, 1, 0]),
        np.array([0, 0, 0, 0, 1, 1, 1, 1]),
        np.ones(8), ("x",), "quartet",
    )
    repaired = dir_repair(quartet, DirConfig(repair_level=1.0))
    assert np.array_equal(repaired.features[:, 0], np.array([3.0, 4, 5, 6, 3, 4, 5, 6]))


def test_criterion_05_opp_directional(tmp_path):
    """OPP strictly improves SPD and DI with a bounded base-rate shift."""
    if raw_file("adult.data"):
        ds = load_adult(tmp_path)
        columns = ("age", "education_num", "hours_per_week")
        cfg = OppConfig(epsilon=0.15, distortion_budget=0.25, bins=4, max_iter=500, columns=columns)
    else:
        # adult-shaped surrogate: unprivileged minority with a much lower rate
        rng = np.random.default_rng(12)
        n = 3000
        protected = (rng.random(n) < 0.67).astype(np.int64)
        rate = np.where(protected == 1, 0.30, 0.11)
        labels = (rng.random(n) < rate).astype(np.int64)
        x1 = rng.normal(1.1 * labels + 0.6 * protected, 1.0)
        x2 = rng.normal(1.3 * labels, 1.0)
        ds = TabularDataset(np.column_stack([x1, x2]), labels, protected, np.ones(n),
                            ("a", "b"), "adult-like")
        cfg = OppConfig(epsilon=0.15, distortion_budget=0.25, bins=4, max_iter=500)
    mapping = opp_fit(ds, cfg)
    out = opp_transform(mapping, ds, seed=3)
    assert abs(statistical_parity_difference(out)) < abs(statistical_parity_difference(ds))
    assert disparate_impact(out) > disparate_impact(ds)
    assert abs(base_rate(out) - base_rate(ds)) <= 0.03


def test_criterion_06_lfr_property_suite():
    """Monotone objective, finite-difference gradient agreement, collapse consistency."""
    from test_preproc_lfr import finite_difference_check

    rng = np.random.default_rng(11)
    for _ in range(10):
        assert finite_difference_check(rng) <= 1e-4

    ds, _, _ = standardize(make_synthetic(seed=7, n=150, disparity=0.4))
    model = lfr_fit(ds, LfrConfig(prototypes=5, max_iter=300, tol=1e-9), seed=1)
    trace = np.array(model.objective_trace)
    assert (np.diff(trace) <= 0).all()

    collapsed = lfr_transform(
        lfr_fit(ds, LfrConfig(prototypes=4, a_z=200.0, a_x=0.01, a_y=0.01, max_iter=400), seed=2), ds
    )
    assert len(np.unique(collapsed.labels)) == 1
    assert consistency(collapsed) == 1.0


def test_criterion_07_metric_oracle_equivalence():
    """All metrics agree with brute-force loops to 1e-12 on 50 random fixtures."""
    rng = np.random.default_rng(20)
    for _ in range(50):
        features, labels, protected, weights, scores = random_metric_fixture(
            rng, require_group_confusions=True
        )
        ds = TabularDataset(features, labels, protected, weights,
                            tuple(f"f{i}" for i in range(features.shape[1])), "rnd")
        ll, pp, ww = labels.tolist(), protected.tolist(), weights.tolist()
        assert base_rate(ds) == pytest.approx(oracle_base_rate(ll, pp, ww), abs=1e-12)
        assert statistical_parity_difference(ds) == pytest.approx(oracle_spd(ll, pp, ww), abs=1e-12)
        assert disparate_impact(ds) == pytest.approx(oracle_di(ll, pp, ww), abs=1e-12)
        assert count_labels(ds) == oracle_counts(ll)
        assert empirical_difference(ds) == pytest.approx(
            oracle_empirical_difference(ll, pp), abs=1e-12
        )
        assert consistency(ds, k=3) == pytest.approx(
            oracle_consistency(features.tolist(), ll, 3), abs=1e-12
        )
        threshold = float(rng.integers(1, 100)) / 100.0
        ours = classification_metrics(labels, scores, threshold, protected, weights)
        ref = oracle_classification(ll, scores.tolist(), threshold, pp, ww)
        for field in ("balanced_accuracy", "statistical_parity_difference",
                      "equal_opportunity_difference", "average_odds_difference", "theil_index"):
            want = ref[field]
            got = getattr(ours, field)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12), field

        # group-encoding swap: SPD/EOD/AOD negate, DI inverts
        swapped = classification_metrics(labels, scores, threshold, 1 - protected, weights)
        for field in ("statistical_parity_difference", "equal_opportunity_difference",
                      "average_odds_difference"):
            a, b = getattr(ours, field), getattr(swapped, field)
            if a is not None and b is not None:
                assert b == pytest.approx(-a, abs=1e-12)
        ds_swapped = TabularDataset(features, labels, 1 - protected, weights, ds.feature_names, "s")
        di = disparate_impact(ds)
        if np.isfinite(di) and di > 0:
            assert disparate_impact(ds_swapped) == pytest.approx(1.0 / di, abs=1e-12)

        # weight scaling leaves every weighted metric unchanged
        scaled = TabularDataset(features, labels, protected, weights * 7.25, ds.feature_names, "w")
        assert statistical_parity_difference(scaled) == pytest.approx(
            statistical_parity_difference(ds), abs=1e-12
        )
        ours_scaled = classification_metrics(labels, scores, threshold, protected, weights * 7.25)
        for field in ("balanced_accuracy", "statistical_parity_difference",
                      "equal_opportunity_difference", "average_odds_difference"):
            a, b = getattr(ours, field), getattr(ours_scaled, field)
            if a is not None:
                assert b == pytest.approx(a, abs=1e-12)


def test_criterion_08_sweep_protocol(tmp_path):
    """99 thresholds, one-shot consistency, shared split indices, argmax reduction."""
    assert len(default_grid()) == 99

    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, 300)
    protected = rng.integers(0, 2, 300)
    scores = np.clip(rng.normal(0.35 + 0.3 * y, 0.2), 0.01, 0.99)
    table = sweep_thresholds(y, scores, protected)
    assert len(table) == 99
    assert table.at(table.thresholds.index(0.5)) == classification_metrics(y, scores, 0.5, protected)

    ds = make_synthetic(seed=6, n=600, disparity=0.3)
    report = run_prep_stage(ds, "RW", {}, seed=2, cache_dir=tmp_path, dataset_name="syn")
    bench = run_bench_stage(report, split_spec=SplitSpec(seed=2), cache_dir=tmp_path)
    assert len(bench.original.validation) == len(bench.original.test) == 99
    assert len(bench.processed.validation) == len(bench.processed.test) == 99
    assert bench.original.split_hash == bench.processed.split_hash

    # fairness identically zero -> balanced-accuracy argmax
    from fairbench.metrics.classification import ClassificationTable

    grid = list(default_grid())
    accuracy = [0.5 + 0.4 * np.sin(i / 7.0) ** 2 for i in range(len(grid))]
    best_t = grid[int(np.argmax(accuracy))]  # the first of any ties
    flat = ClassificationTable(
        thresholds=grid, balanced_accuracy=accuracy, statistical_parity_difference=[0.0] * 99,
        disparate_impact=[1.0] * 99, equal_opportunity_difference=[0.0] * 99,
        average_odds_difference=[0.0] * 99, theil_index=[0.0] * 99, group_rates={},
    )
    assert select_optimal_threshold(flat, "SPD") == best_t


def test_criterion_09_end_to_end_reweighing_effect(tmp_path):
    """RW shrinks |SPD| at the selected threshold without sacrificing accuracy."""
    started = time.perf_counter()
    hits = 0
    spd_pairs = []
    for i in range(10):
        seed = i
        ds = make_synthetic(seed=1000 + seed, n=2000, disparity=0.4)
        report = run_prep_stage(ds, "RW", {}, seed=seed,
                                cache_dir=tmp_path, dataset_name=f"syn{seed}")
        bench = run_bench_stage(report, split_spec=SplitSpec(seed=seed),
                                selection_metric="Theil", cache_dir=tmp_path)
        spd_orig = abs(bench.original.test_at_optimal.statistical_parity_difference)
        spd_rw = abs(bench.processed.test_at_optimal.statistical_parity_difference)
        acc_orig = bench.original.test_at_optimal.balanced_accuracy
        acc_rw = bench.processed.test_at_optimal.balanced_accuracy
        spd_pairs.append((spd_orig, spd_rw))
        if spd_rw < spd_orig and abs(acc_rw - acc_orig) <= 0.05:
            hits += 1
    elapsed = time.perf_counter() - started
    assert hits >= 8, f"only {hits}/10 seeds improved: {spd_pairs}"
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"


BATCH_YAML = """
datasets:
  - name: synth_a
    synthetic: {n: 240, disparity: 0.3, seed: 11}
  - name: synth_b
    synthetic: {n: 240, disparity: 0.1, seed: 12}
methods:
  - name: RW
  - name: DIR
models: [logreg]
seeds: [3]
selection_metric: SPD
"""


def test_criterion_10_batch_determinism(tmp_path):
    """Exact product expansion, parallelism-independent bytes, warm-cache rerun, SVG shape."""
    spec = parse_batch_yaml(BATCH_YAML)
    jobs, skipped = expand_jobs(spec)
    assert len(jobs) == 4 and skipped == 0
    expected = {(d.name, m) for d in spec.datasets for m, _ in spec.methods}
    assert {(j.dataset.name, j.method) for j in jobs} == expected

    cache = tmp_path / "cache"
    run_batch(jobs, parallelism=1, output_dir=tmp_path / "p1", cache_dir=cache)
    run_batch(jobs, parallelism=4, output_dir=tmp_path / "p4", cache_dir=tmp_path / "cache4")
    run_batch(jobs, parallelism=1, output_dir=tmp_path / "warm", cache_dir=cache)

    def files(root):
        return {
            p.relative_to(root): p
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "batch_report.json" and p.suffix != ".fpds"
        }

    serial, parallel, warm = files(tmp_path / "p1"), files(tmp_path / "p4"), files(tmp_path / "warm")
    assert set(serial) == set(parallel) == set(warm)
    for rel in serial:
        assert filecmp.cmp(serial[rel], parallel[rel], shallow=False), f"parallelism changed {rel}"
        assert filecmp.cmp(serial[rel], warm[rel], shallow=False), f"warm cache changed {rel}"

    # structural SVG acceptance on a produced artifact
    svg_path = next(p for rel, p in serial.items() if rel.name == "sweep_original.svg")
    root = ET.fromstring(svg_path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    accuracy_points = sum(
        len(p.get("points").split()) for p in root.iter(f"{ns}polyline") if p.get("class") == "accuracy"
    ) + sum(1 for c in root.iter(f"{ns}circle") if c.get("class") == "accuracy")
    assert accuracy_points == 5 * 99
    texts = [t.text for t in root.iter(f"{ns}text")]
    assert any("left axis" in t for t in texts)
    assert any("right axis" in t for t in texts)
    assert any(t.startswith("t*=") for t in texts if t)
    assert len([ln for ln in root.iter(f"{ns}line") if ln.get("stroke-dasharray")]) == 5
