"""The benchmark's tracer (`bench/spans.py`) sees every layer of a batch run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_batch(tmp_path, draws, methods, parallelism, method_params=None, **matrix):
    """(result, per-layer metrics, problems) of one traced batch over German n=200 CSVs, one per draw.

    `method_params` maps a method name to its parameters in the matrix.
    """
    gen, spans = _bench_module("gen"), _bench_module("spans")
    schema = ROOT / "src" / "fairbench" / "dataset" / "schemas" / "german.yaml"
    datasets = []
    for draw in draws:
        csv = tmp_path / f"german-{draw}.csv"
        gen.write_german(csv, 200, 5, draw)
        datasets.append({"name": f"german-{draw}", "csv": str(csv), "schema": str(schema)})
    config = tmp_path / "batch.yaml"
    config.write_text(json.dumps({  # JSON is YAML
        "datasets": datasets, "models": ["logreg"], "seeds": [0],
        "methods": [{"name": m, "params": (method_params or {}).get(m, {})} for m in methods],
        "parallelism": parallelism, **matrix,
    }), encoding="utf-8")
    result_path, span_dir = tmp_path / "result.json", tmp_path / "spans"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "batch", str(config), str(tmp_path / "out"),
         str(tmp_path / "cache"), str(result_path), str(span_dir)],
        cwd=ROOT, check=True, timeout=300,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    metrics, problems = spans.summarize(spans.load_records(span_dir), result["start"], result["wall_s"],
                                        parallelism, result["cpu_s"], methods)
    return result, metrics, problems


@pytest.mark.parametrize("parallelism", [1, 2])
def test_traced_batch_records_every_layer_and_one_ingest_per_original(tmp_path, parallelism):
    # three distinct (dataset, sensitive) originals under six jobs
    result, metrics, problems = _traced_batch(
        tmp_path, (0, 1), ["RW", "DIR"], parallelism,
        sensitive_attributes={"german-0": ["sex", "age"], "german-1": ["sex"]})
    assert [job["status"] for job in result["jobs"]] == ["ok"] * 6, result["jobs"]
    assert problems == []
    assert metrics["dataset.ingest_calls"] == 3


def test_traced_lfr_fit_reports_its_time_and_steps(tmp_path):
    # the tracer patches `fairbench.preproc.lfr_fit` and counts `objective_trace`
    result, metrics, problems = _traced_batch(tmp_path, (0,), ["LFR"], 1)
    assert [job["status"] for job in result["jobs"]] == ["ok"], result["jobs"]
    assert problems == []
    assert metrics["preproc.fit_s.LFR"] > 0
    assert metrics["preproc.lfr_iterations"] > 0


@pytest.mark.parametrize("parallelism", [1, 2])
def test_the_jobs_of_one_original_fit_its_model_once_between_them(tmp_path, parallelism):
    # four processed arms and the one original arm they share
    result, metrics, problems = _traced_batch(
        tmp_path, (0,), ["RW", "DIR", "LFR", "OPP"], parallelism,
        method_params={"OPP": {"columns": ["duration", "credit_amount", "age"]}})
    assert [job["status"] for job in result["jobs"]] == ["ok"] * 4, result["jobs"]
    assert problems == []
    assert metrics["model.fit_calls"] == 5
    # 5 arms x 2 splits, each one call through the `sweep.classification_metrics` the spans wrap
    assert metrics["metrics.classification_calls"] == 10
