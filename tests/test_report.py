"""Emitters: CSV shape and precision, JSON round trip, SVG structure and gaps."""

import csv
import dataclasses
import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fairbench.dataset import SplitSpec, make_synthetic
from fairbench.errors import FairbenchError
from fairbench.metrics.dataset_metrics import DatasetMetrics
from fairbench.metrics import classification_metrics
from fairbench.metrics.classification import ClassificationTable
from fairbench.pipeline import default_grid, run_bench_stage, run_prep_stage, sweep_thresholds
from fairbench.pipeline.sweep import SweepResult
from fairbench.report import (
    STAGE1_HEADER,
    render_sweep_svg,
    stage1_rows,
    write_stage1_csv,
    write_summary_json,
    write_sweep_csv,
)
from fairbench.report.tables import sweep_summary


@pytest.fixture(scope="module")
def bench_result(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    ds = make_synthetic(seed=0, n=500, disparity=0.4)
    report = run_prep_stage(ds, "RW", {}, seed=0, cache_dir=cache, dataset_name="syn")
    bench = run_bench_stage(report, split_spec=SplitSpec(seed=0), cache_dir=cache)
    return report, bench


def sample_metrics(**overrides):
    fields = dict(
        base_rate=0.7, base_rate_unprivileged=0.648, base_rate_privileged=0.723,
        consistency=0.661, disparate_impact=0.897, statistical_parity_difference=-0.075,
        num_positives=700, num_negatives=300, empirical_difference=0.239,
    )
    fields.update(overrides)
    return DatasetMetrics(**fields)


class TestStage1Csv:
    def test_single_row_nine_columns(self, tmp_path):
        path = write_stage1_csv([("german", "RW", sample_metrics())], tmp_path / "s1.csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].split(",") == list(STAGE1_HEADER)
        assert len(lines[1].split(",")) == 9
        assert lines[1].startswith("german,RW,0.700,0.661,0.897,-0.075,700,300,0.239")

    def test_report_rows_original_first(self, tmp_path, bench_result):
        report, _ = bench_result
        rows = stage1_rows(report)
        assert [r[1] for r in rows] == ["original", "RW"]
        path = write_stage1_csv(rows, tmp_path / "s1.csv")
        assert len(path.read_text().strip().split("\n")) == 3

    def test_non_finite_rendered_undefined(self, tmp_path):
        path = write_stage1_csv(
            [("x", "RW", sample_metrics(disparate_impact=math.inf))], tmp_path / "s1.csv"
        )
        assert "undefined" in path.read_text()
        assert "inf" not in path.read_text()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(FairbenchError):
            write_stage1_csv([], tmp_path / "s1.csv")

    @pytest.mark.parametrize("name", ["synthetic:n=200,disparity=0.3", '"toy" set', 'a,"b'])
    def test_a_name_that_needs_quoting_reads_back_whole(self, tmp_path, name):
        path = write_stage1_csv([(name, "RW", sample_metrics())], tmp_path / "s1.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [9, 9]
        assert rows[1][:2] == [name, "RW"]


class TestSweepCsv:
    def test_99_rows(self, tmp_path):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 100)
        protected = rng.integers(0, 2, 100)
        table = sweep_thresholds(y, rng.uniform(size=100), protected)
        path = write_sweep_csv(table, tmp_path / "sweep.csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 100  # header + 99

    def test_empty_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        empty = classification_metrics(rng.integers(0, 2, 10), rng.uniform(size=10), [], rng.integers(0, 2, 10))
        with pytest.raises(FairbenchError, match="no sweep rows"):
            write_sweep_csv(empty, tmp_path / "sweep.csv")
        assert not (tmp_path / "sweep.csv").exists()

    def test_three_decimal_presentation(self, tmp_path, bench_result):
        _, bench = bench_result
        path = write_sweep_csv(bench.original.test, tmp_path / "sweep.csv")
        row = path.read_text().strip().split("\n")[50].split(",")
        for cell in row[1:]:
            if cell != "undefined":
                assert len(cell.split(".")[-1]) == 3


class TestSummaryJson:
    def test_round_trip_parses_equal(self, tmp_path):
        payload = {"values": [0.1 + 0.2, 1e-17, 1.0 / 3.0], "nested": {"pi": math.pi}}
        path = write_summary_json(payload, tmp_path / "summary.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema_version"] == 1
        assert loaded["values"] == payload["values"]  # lossless floats
        assert loaded["nested"]["pi"] == math.pi

    def test_non_finite_encoded_as_tagged_object(self, tmp_path):
        path = write_summary_json({"di": math.inf}, tmp_path / "s.json")
        loaded = json.loads(path.read_text())
        assert loaded["di"] == {"undefined": "inf"}

    def test_deterministic_bytes(self, tmp_path):
        payload = {"b": 2, "a": [1.5, {"z": 0.1}]}
        a = write_summary_json(payload, tmp_path / "a.json").read_bytes()
        b = write_summary_json(payload, tmp_path / "b.json").read_bytes()
        assert a == b


class TestSvg:
    def test_valid_xml_with_five_panels(self, bench_result):
        _, bench = bench_result
        doc = render_sweep_svg(bench.original)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        titles = [el.text for el in root.iter() if el.tag.endswith("text")]
        for name in ("SPD", "DI", "EOD", "AOD", "Theil"):
            assert name in titles
        assert "http" not in doc.replace("http://www.w3.org/2000/svg", "")

    def test_99_point_series_per_panel(self, bench_result):
        _, bench = bench_result
        root = ET.fromstring(render_sweep_svg(bench.original))
        ns = "{http://www.w3.org/2000/svg}"
        accuracy_points = 0
        for poly in root.iter(f"{ns}polyline"):
            if poly.get("class") == "accuracy":
                accuracy_points += len(poly.get("points").split())
        for circle in root.iter(f"{ns}circle"):
            if circle.get("class") == "accuracy":
                accuracy_points += 1
        assert accuracy_points == 5 * 99

    def test_optimal_threshold_marker_present(self, bench_result):
        _, bench = bench_result
        doc = render_sweep_svg(bench.original)
        assert f"t*={bench.original.optimal_threshold:.2f}" in doc
        root = ET.fromstring(doc)
        ns = "{http://www.w3.org/2000/svg}"
        dashed = [ln for ln in root.iter(f"{ns}line") if ln.get("stroke-dasharray")]
        assert len(dashed) == 5

    def test_byte_identical_for_identical_input(self, bench_result):
        _, bench = bench_result
        assert render_sweep_svg(bench.original) == render_sweep_svg(bench.original)

    def test_undefined_points_leave_gap(self, bench_result):
        _, bench = bench_result
        result = bench.original
        # forge a result whose DI is undefined in the middle of the grid
        di = [None if 40 <= i < 60 else v for i, v in enumerate(result.test.disparate_impact)]
        patched = dataclasses.replace(result, test=dataclasses.replace(result.test, disparate_impact=di))
        root = ET.fromstring(render_sweep_svg(patched))
        ns = "{http://www.w3.org/2000/svg}"
        fairness_polylines = [p for p in root.iter(f"{ns}polyline") if p.get("class") == "fairness"]
        fairness_points = sum(len(p.get("points").split()) for p in fairness_polylines)
        # one panel (DI) lost 20 points and split into two segments
        assert fairness_points == 5 * 99 - 20
        assert len(fairness_polylines) >= 6

    def test_flat_series_renders_flat(self):
        table = ClassificationTable(
            thresholds=list(default_grid()), balanced_accuracy=[0.5] * 99,
            statistical_parity_difference=[0.0] * 99, disparate_impact=[1.0] * 99,
            equal_opportunity_difference=[0.0] * 99, average_odds_difference=[0.0] * 99,
            theil_index=[0.0] * 99, group_rates={0: {}, 1: {}, "all": {}},
        )
        flat = SweepResult(
            arm="original", validation=table, test=table, optimal_threshold=0.5,
            selection_metric="SPD", split_hash="x",
        )
        root = ET.fromstring(render_sweep_svg(flat))
        ns = "{http://www.w3.org/2000/svg}"
        for poly in root.iter(f"{ns}polyline"):
            ys = {point.split(",")[1] for point in poly.get("points").split()}
            assert len(ys) == 1


def golden_table():
    """Hand-made columns over the grid: gaps, a one-point segment, an infinite and a NaN DI, a flat
    and an empty series, and undefined group rates."""
    n = 99
    accuracy = [0.5 + 0.4 * ((i * 7) % 17) / 16 for i in range(n)]
    accuracy[10] = None
    spd = [-0.3 + 0.006 * i for i in range(n)]
    for i in list(range(40, 60)) + [60, 62]:
        spd[i] = None  # a gap, then a one-point segment at 61
    di = [0.6 + 0.01 * i for i in range(n)]
    di[36] = math.inf
    di[80] = math.nan
    di[90] = None
    rates = {
        g: {
            "tpr": [None if g == 0 and i > 95 else 1.0 - i / 99 / (2 + k) for i in range(n)],
            "fpr": [0.9 - i / 120 / (1 + k) for i in range(n)],
            "tnr": [0.1 + i / 120 / (1 + k) for i in range(n)],
            "fnr": [None if g == 0 and i > 95 else i / 99 / (2 + k) for i in range(n)],
        }
        for k, g in enumerate((0, 1, "all"))
    }
    return ClassificationTable(
        thresholds=list(default_grid()), balanced_accuracy=accuracy, statistical_parity_difference=spd,
        disparate_impact=di, equal_opportunity_difference=[0.0] * n, average_odds_difference=[None] * n,
        theil_index=[0.001 * (i % 13) ** 2 for i in range(n)], group_rates=rates,
    )


def test_golden_rendering_digests(tmp_path):
    # digests of the renderers' output on these values before sweeps became tables; never re-derived
    table = golden_table()
    result = SweepResult(arm="original", validation=table, test=table, optimal_threshold=0.37,
                         selection_metric="DI", split_hash="ab" * 32)
    summary = write_summary_json(sweep_summary(result), tmp_path / "summary.json").read_bytes()

    def digest(data):
        return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

    sweep_csv = write_sweep_csv(result.test, tmp_path / "sweep.csv").read_bytes()
    assert digest(sweep_csv) == "b6c9762eca65e81398f5ecfe79a8c23409eba9ef793bcc82b70e867843e9338e"
    assert digest(render_sweep_svg(result)) == "9d46ac0f66ad30012ad6dc037fc31d016c409dc8a71a8762aae084029844e728"
    assert digest(summary) == "11d379ea59e53892d559faded72faa8df8542a403a3a4184d52c2fe1efd13ce1"
