"""Correctness checks on the artifacts of a batch run; each returns a list of problems."""

import csv
import hashlib
import json
from pathlib import Path

# batch_report.json holds wall times and cache entries (.fpds) are not artifacts
_NONDETERMINISTIC = {"batch_report.json"}
SWEEP_ROWS = 99
SPD_TOLERANCE = 1e-12
ORACLE_TOLERANCE = 1e-12


def artifact_digests(out_dir):
    """{relative path: sha256} of every deterministic artifact under `out_dir`."""
    out_dir = Path(out_dir)
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name not in _NONDETERMINISTIC and p.suffix != ".fpds"
    }


def compare_artifacts(reference, other, label):
    """Problems where `other`'s artifacts differ from `reference` (two digest maps)."""
    problems = [f"{label}: {path} missing" for path in sorted(set(reference) - set(other))]
    problems += [f"{label}: unexpected {path}" for path in sorted(set(other) - set(reference))]
    problems += [f"{label}: {path} differs" for path in sorted(set(reference) & set(other))
                 if reference[path] != other[path]]
    return problems


def arm_outcomes(out_dir, jobs):
    """(attempted arms, [failure text]); a failed job fails both of its arms."""
    failures = []
    for job in jobs:
        tag = f"{job['dataset']}/{job['method']}/{job['sensitive']}/seed {job['seed']}"
        if job["status"] != "ok":
            failures += [f"{tag} original: {job['error']}", f"{tag} processed: {job['error']}"]
            continue
        summary = json.loads((Path(out_dir) / job["job_id"] / "summary.json").read_text())
        failures += [f"{tag} {arm}: {msg}" for arm, msg in sorted(summary["arm_errors"].items())]
    return 2 * len(jobs), failures


def check_job_outputs(out_dir, jobs, oracle_consistency):
    """RW parity, 99-row sweeps and consistency against the oracle, where
    `oracle_consistency` ({dataset name: value}) has one for the job's dataset."""
    problems = []
    for job in jobs:
        if job["status"] != "ok":
            continue
        job_dir = Path(out_dir) / job["job_id"]
        stage1 = json.loads((job_dir / "summary.json").read_text())["stage1"]
        if job["method"] == "RW":
            spd = stage1["processed_metrics"]["statistical_parity_difference"]
            if abs(spd) > SPD_TOLERANCE:
                problems.append(f"{job['job_id']}: RW processed |SPD| = {abs(spd):.3g} > {SPD_TOLERANCE}")
        oracle = oracle_consistency.get(job["dataset"])
        if oracle is not None:
            got = stage1["original_metrics"]["consistency"]
            if abs(got - oracle) > ORACLE_TOLERANCE:
                problems.append(f"{job['job_id']}: original consistency {got!r} "
                                f"!= oracle {oracle!r}")
        for sweep in sorted(job_dir.glob("sweep_*.csv")):
            with open(sweep, encoding="utf-8", newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1  # header
            if rows != SWEEP_ROWS:
                problems.append(f"{job['job_id']}/{sweep.name}: {rows} rows, expected {SWEEP_ROWS}")
    return problems
