"""Batch-matrix benchmark for fairbench.

    python3 bench/run.py --workload german_matrix --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The seed generates the workload's input
CSVs, as many as `--seconds` allows; one batch matrix over all of them goes
through `fairbench.batch.run_batch` in a fresh interpreter (`bench/child.py`).
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` an untraced and a traced batch over half as many
CSVs run one after the other and it holds the per-layer metrics. Every run
checks the artifacts; a failed check is printed on stderr, sets "correct" to
false and makes the exit code 1. See bench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = Path(".bench_work")
CHILD_TIMEOUT_S = 150
# set-up probes at each of three points of a run: before the reference
# batch, before the timed batch and after it
SETUP_PROBES_PER_POINT = 3


@dataclass(frozen=True)
class Workload:
    dataset: str
    n: int
    sensitive: tuple  # dataset k of the matrix uses sensitive[k % len(sensitive)]
    parallelism: int
    datasets_per_s: float  # datasets in the matrix per second of --seconds
    methods: tuple = ("RW", "DIR", "LFR", "OPP")


# german_matrix spreads many small serial jobs over every layer; adult_matrix
# runs larger jobs on two pool workers, where kNN, cache text I/O, logreg and
# BLAS over-subscription dominate. Adult is cut to 4000 rows (above the 2048
# at which consistency switches to the blocked kNN) to fit the time budget.
# LFR and OPP stop after a data-dependent number of iterations: one German
# LFR fit takes 0.6-4 s, and an OPP fit takes either about 0.5 s or, with
# several times the iterations, 1-1.7 s. So a run spreads its jobs over as
# many generated datasets as its time allows, one job per method and dataset,
# and German gets the larger share of the time. In a 4-job Adult matrix the
# LFR job alone set the batch time, so LFR runs on German only.
WORKLOADS = {
    "german_matrix": Workload("german", 1000, ("sex", "age"), parallelism=1, datasets_per_s=0.38),
    "adult_matrix": Workload("adult", 4000, ("sex",), parallelism=2, datasets_per_s=0.14,
                             methods=("RW", "DIR", "OPP")),
}
# OPP's default discretizes every column and fails on both schemas; these
# columns keep its domain small enough to run
OPP_COLUMNS = {
    "german": ["duration", "credit_amount", "age"],
    "adult": ["age", "education_num", "hours_per_week"],
}
CONSISTENCY_K = 5

END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "disk_mb": "MiB", "arm_ok_ratio": "ratio"}


class BenchError(Exception):
    """A measurement could not be taken."""


def _require_checkout():
    needed = [ROOT / "src" / "fairbench" / "__init__.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"bench: run from the root of a fairbench checkout; missing {', '.join(missing)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def schema_file(dataset):
    return f"src/fairbench/dataset/schemas/{dataset}.yaml"


def dataset_names(w: Workload, count):
    return [f"{w.dataset}-{k}" for k in range(count)]


def write_config(path, w: Workload, csv_paths, parallelism):
    names = dataset_names(w, len(csv_paths))
    doc = {  # JSON is YAML
        "datasets": [{"name": name, "csv": str(csv), "schema": schema_file(w.dataset)}
                     for name, csv in zip(names, csv_paths)],
        "sensitive_attributes": {name: [w.sensitive[k % len(w.sensitive)]]
                                 for k, name in enumerate(names)},
        "methods": [{"name": m, "params": {"columns": OPP_COLUMNS[w.dataset]}} if m == "OPP" else m
                    for m in w.methods],
        "models": ["logreg"],
        "seeds": [0],
        "parallelism": parallelism,
    }
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def _child(args, log_path):
    """Run bench/child.py to completion; its pool workers share its process group."""
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{' '.join(cmd)} timed out after {CHILD_TIMEOUT_S}s") from None
    if code != 0:
        tail = Path(log_path).read_text(encoding="utf-8").strip().splitlines()[-5:]
        raise BenchError(f"{' '.join(cmd)} exited {code}:\n" + "\n".join(tail))


def measure_setup(config):
    """Seconds from starting a fresh interpreter until the expanded job list is ready."""
    # the child reads the same monotonic clock when its job list is ready
    cmd = [sys.executable, str(HERE / "child.py"), "setup", str(config), repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe timed out after {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def _tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def run_batch_once(config, rep_dir, trace):
    """Run the matrix on a cold cache, which is removed once its size is taken."""
    rep_dir.mkdir(parents=True)
    out, cache_dir = rep_dir / "out", rep_dir / "cache"
    args = ["batch", config, out, cache_dir, rep_dir / "result.json"]
    if trace:
        args.append(rep_dir / "spans")
    _child(args, rep_dir / "child.log")
    result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    result["out"] = out
    result["disk_bytes"] = _tree_bytes(out) + _tree_bytes(cache_dir)
    result["digests"] = checks.artifact_digests(out)
    shutil.rmtree(cache_dir)
    return result


def opp_defaults_probe(csv_path, w: Workload):
    """1 when OPP with default parameters fails on this schema, with the error text."""
    from fairbench.dataset import SplitSpec, encode, load_csv, load_schema, split
    from fairbench.errors import FairbenchError
    from fairbench.preproc import fit_method

    schema = load_schema(schema_file(w.dataset), sensitive=w.sensitive[0])
    train, _, _ = split(encode(load_csv(csv_path, schema), schema), SplitSpec(seed=0))
    try:
        fit_method("OPP", train, {})
    except FairbenchError as exc:
        return 1, f"{type(exc).__name__}: {exc}"
    return 0, ""


def oracle_consistency(csv_path, w: Workload):
    """Consistency of the encoded original by the loop oracle in tests/oracles.py."""
    from oracles import oracle_consistency as oracle

    from fairbench.dataset import encode, load_csv, load_schema

    schema = load_schema(schema_file(w.dataset), sensitive=w.sensitive[0])
    ds = encode(load_csv(csv_path, schema), schema)
    return oracle(ds.features.tolist(), ds.labels.tolist(), CONSISTENCY_K)


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": numpy.__version__, "blas": blas}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def datasets_in_matrix(w: Workload, seconds):
    """Datasets in the matrix of a run given `seconds`; at least 2."""
    return max(2, round(seconds * w.datasets_per_s))


def _jobs_of(digests, job_ids):
    return {path: d for path, d in digests.items() if path.split("/")[0] in job_ids}


def run_workload(name, seed, seconds, trace, n=None, log=print):
    """Measure one workload; returns (result line dict, problems)."""
    import gen

    w = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # a traced run spends half its time untraced and half traced
    count = datasets_in_matrix(w, seconds / 2 if trace else seconds)
    # job ids hash the CSV path and every fit seed derives from the job id, so
    # dataset k keeps its path from run to run
    csvs = [work / f"input-{k}.csv" for k in range(count)]
    for k, csv_path in enumerate(csvs):
        getattr(gen, f"write_{w.dataset}")(csv_path, n or w.n, seed, k)
    config = write_config(work / "batch.yaml", w, csvs, w.parallelism)

    log(f"# env {json.dumps(environment(), sort_keys=True)}")
    log("# note: wall-clock figures from a shared machine are noisy; compare medians of many runs")
    opp_failed, opp_error = opp_defaults_probe(csvs[0], w)
    log(f"# preproc.opp_defaults_failed={opp_failed} {opp_error}")

    def probe_setup():
        # spread over the run, so one noisy moment cannot move the median; a
        # traced run reports no setup_s
        return [] if trace else [measure_setup(config) for _ in range(SETUP_PROBES_PER_POINT)]

    # an untimed batch of the first dataset at the other parallelism, whose
    # artifacts the timed batch must reproduce byte for byte. The other
    # datasets get no reference: one for all would make a run half as long again.
    setup_times = probe_setup()
    other = 2 if w.parallelism == 1 else 1
    reference = run_batch_once(write_config(work / "reference.yaml", w, csvs[:1], other),
                               work / "reference", trace=False)
    setup_times += probe_setup()
    runs = [run_batch_once(config, work / "run-0", trace=False)]
    if trace:
        runs.append(run_batch_once(config, work / "run-1", trace=True))
    setup_times += probe_setup()

    reference_ids = {job["job_id"] for job in reference["jobs"]}
    problems = []
    for run in runs:
        problems += checks.compare_artifacts(reference["digests"],
                                             _jobs_of(run["digests"], reference_ids),
                                             f"{run['out'].parent.name} vs reference")
    if trace:  # tracing must not change a single artifact
        problems += checks.compare_artifacts(runs[0]["digests"], runs[1]["digests"],
                                             "traced vs untraced")

    oracles = {}
    if w.dataset == "german":
        oracles[dataset_names(w, 1)[0]] = oracle_consistency(csvs[0], w)
    attempted_arms, arm_failures = 0, []
    for run in runs:
        problems += checks.check_job_outputs(run["out"], run["jobs"], oracles)
        arms, failed = checks.arm_outcomes(run["out"], run["jobs"])
        attempted_arms += arms
        arm_failures += failed
    for text in sorted(set(arm_failures)):
        log(f"# arm failed: {text}")

    if trace:
        metrics = traced_metrics(runs, w.methods, problems, log)
        metrics["preproc.opp_defaults_failed"] = (opp_failed, "count")
        metrics["batch.fail_ratio"] = (len(arm_failures) / attempted_arms, "ratio")
    else:
        run = runs[0]
        metrics = {
            "jobs_per_s": sum(j["status"] == "ok" for j in run["jobs"]) / run["wall_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": run["peak_rss_kib"] / 1024,
            "disk_mb": run["disk_bytes"] / 2 ** 20,
            "arm_ok_ratio": 1.0 - len(arm_failures) / attempted_arms,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    jobs = [job for run in runs for job in run["jobs"]]
    result = {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": sum(job["status"] != "ok" for job in jobs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, problems


def _unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_bytes") or name == "report.bytes":
        return "bytes"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def traced_metrics(runs, methods, problems, log):
    """Per-layer metrics of the traced batch, plus the tracing overhead."""
    untraced, traced = runs
    records = spans.load_records(traced["out"].parent / "spans")
    metrics, found = spans.summarize(records, traced["start"], traced["wall_s"],
                                     traced["parallelism"], traced["cpu_s"], methods)
    problems += found
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    coverage = metrics["trace.coverage_ratio"]
    if coverage < 0.9:
        log(f"TRACE GAP: listed layers cover {coverage:.1%} of traced job time, "
            f"{1 - coverage:.1%} is unattributed")
    return {name: (value, _unit(name)) for name, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    try:
        result, problems = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.exit(f"bench: {exc}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
