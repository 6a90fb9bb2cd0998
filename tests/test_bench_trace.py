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


@pytest.mark.parametrize("parallelism", [1, 2])
def test_traced_batch_records_every_layer_and_one_ingest_per_original(tmp_path, parallelism):
    gen, spans = _bench_module("gen"), _bench_module("spans")
    schema = ROOT / "src" / "fairbench" / "dataset" / "schemas" / "german.yaml"
    datasets = []
    for draw in (0, 1):
        csv = tmp_path / f"german-{draw}.csv"
        gen.write_german(csv, 200, 5, draw)
        datasets.append({"name": f"german-{draw}", "csv": str(csv), "schema": str(schema)})
    methods = ["RW", "DIR"]
    config = tmp_path / "batch.yaml"
    config.write_text(json.dumps({  # JSON is YAML
        "datasets": datasets,
        # three distinct (dataset, sensitive) originals under six jobs
        "sensitive_attributes": {"german-0": ["sex", "age"], "german-1": ["sex"]},
        "methods": methods, "models": ["logreg"], "seeds": [0], "parallelism": parallelism,
    }), encoding="utf-8")
    result_path, span_dir = tmp_path / "result.json", tmp_path / "spans"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "batch", str(config), str(tmp_path / "out"),
         str(tmp_path / "cache"), str(result_path), str(span_dir)],
        cwd=ROOT, check=True, timeout=300,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert [job["status"] for job in result["jobs"]] == ["ok"] * 6, result["jobs"]

    metrics, problems = spans.summarize(spans.load_records(span_dir), result["start"], result["wall_s"],
                                        parallelism, result["cpu_s"], methods)
    assert problems == []
    assert metrics["dataset.ingest_calls"] == 3
