"""Golden digests: every deterministic artifact of two small batches, pinned by its sha256.

The batches run RW, DIR, LFR and OPP at seeds 0 and 1 at parallelism 1: one
over a synthetic n=400 dataset, OPP at its defaults, and one over a
German-shaped n=300 CSV from `bench/gen.py`, OPP on three numeric columns
(OPP's `columns` apply to every dataset of a batch, hence two batches). The
manifest `golden_batch.json` holds each file's sha256 under `files`, and under
`summaries_without_cache_keys` the sha256 of each `summary.json` with its two
cache keys left out, so a change of cache format shows as those keys alone.
`.fpds` files and `batch_report.json` are left out, as `bench/checks.py` leaves
them out. After a deliberate change to the artifacts, rewrite the manifest with

    PYTHONPATH=src python tests/test_golden_batch.py --write

and name the files that moved, and why, in the change that moves them.
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from fairbench.batch import expand_jobs, parse_batch_yaml, run_batch
from fairbench.dataset.recipes import schema_path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_batch.json")
CACHE_KEYS = ("original_cache_key", "processed_cache_key")
_METHODS = ["RW", "DIR", "LFR", "OPP"]
BATCHES = {
    "synthetic": {"datasets": [{"name": "synthetic", "synthetic": {"n": 400, "seed": 0}}], "methods": _METHODS},
    # the CSV path is relative, so the job ids, which hash it, do not depend on the working directory
    "german": {"datasets": [{"name": "german", "csv": "german.csv", "schema": str(schema_path("german"))}],
               "methods": _METHODS[:3] + [{"name": "OPP", "params": {"columns": ["duration", "credit_amount", "age"]}}]},
}


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def batch_digests(work_dir):
    """(files, summaries): the sha256 of every deterministic artifact by its path, and of every
    `summary.json` with its cache keys left out, after running both batches in `work_dir`."""
    work_dir = Path(work_dir)
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    files, summaries = {}, {}
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gen.write_german("german.csv", 300, 0)
            for name, matrix in BATCHES.items():
                config = {**matrix, "models": ["logreg"], "seeds": [0, 1], "parallelism": 1}
                jobs, _ = expand_jobs(parse_batch_yaml(json.dumps(config)))  # JSON is YAML
                run_batch(jobs, parallelism=1, output_dir=name, cache_dir=f"{name}-cache")
    finally:
        os.chdir(cwd)
    for path in sorted(work_dir.rglob("*")):
        rel = path.relative_to(work_dir)
        if not path.is_file() or rel.parts[0] not in BATCHES or path.name == "batch_report.json" \
                or path.suffix == ".fpds":
            continue
        blob = path.read_bytes()
        files[rel.as_posix()] = _digest(blob)
        if path.name == "summary.json":
            summary = json.loads(blob)
            for key in CACHE_KEYS:
                del summary["stage1"][key]
            summaries[rel.as_posix()] = _digest(json.dumps(summary, sort_keys=True).encode("utf-8"))
    return files, summaries


def test_batch_artifacts_match_their_golden_digests(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    files, summaries = batch_digests(tmp_path)
    # the summaries first: a new cache format moves their cache keys and nothing else
    moved = sorted(p for p in {*summaries, *manifest["summaries_without_cache_keys"]}
                   if summaries.get(p) != manifest["summaries_without_cache_keys"].get(p))
    assert moved == [], f"summaries that differ in more than their cache keys: {moved}"
    changed = sorted(p for p in {*files, *manifest["files"]} if files.get(p) != manifest["files"].get(p))
    assert changed == [], f"artifacts that differ from {MANIFEST.name}: {changed}"
    # a failed arm is pinned too: LFR collapses the synthetic labels to one class at seed 0
    errors = [json.loads(p.read_text(encoding="utf-8"))["arm_errors"] for p in tmp_path.glob("synthetic/*/summary.json")]
    assert [e for e in errors if e.get("processed", "").startswith("FitError: training labels contain a single")]


def write_manifest():
    with tempfile.TemporaryDirectory() as work:
        files, summaries = batch_digests(work)
    MANIFEST.write_text(json.dumps({"files": files, "summaries_without_cache_keys": summaries}, indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {MANIFEST}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_batch.py --write")
    write_manifest()
