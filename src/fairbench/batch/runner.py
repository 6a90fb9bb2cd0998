"""Execute expanded jobs with isolated failures and a shared atomic cache.

Each distinct (dataset, sensitive attribute) is ingested, cached and measured
once. Its config seed seeds a job's split and every fit, so the jobs of one
(dataset, sensitive attribute, seed) share a split; each original arm then
runs once per (dataset, sensitive attribute, split, seed, model, model
parameters, selection metric). Each job runs the rest of stage 1 and its
processed arm, and writes its full artifact set, both arms alike, under
`<out>/<job id>/`. Results do not depend on parallelism, execution order or
the other jobs.

Preparations, original arms and jobs are plain functions that raise. Each
runs as a pool task through `_call`, the one place where a task's exception
becomes its error text and where its warnings and its time are recorded.
"""

import contextlib
import ctypes
import functools
import json
import os
import signal
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from multiprocessing import get_context
from pathlib import Path

from ..dataset import SplitSpec, load_schema, make_synthetic
from ..dataset.cache import remove_partial_writes
from ..errors import error_text
from ..pipeline.stage1 import load_original, prepare_original, run_prep_stage
from ..pipeline.stage2 import run_bench_stage, run_original_arm, split_original
from ..report.svg import write_sweep_svg
from ..report.tables import (stage1_rows, sweep_summary, write_json, write_stage1_csv, write_summary_json,
                             write_sweep_csv)
from ..util import canonical_json
from .spec import DatasetEntry, JobSpec

_SPLITS = ("validation", "test")


@dataclass(frozen=True)
class JobOutcome:
    job_id: str
    status: str          # "ok" | "failed"
    error: str
    wall_time_s: float
    artifacts: tuple


@dataclass(frozen=True)
class BatchReport:
    outcomes: tuple
    output_dir: str
    skipped_expansions: int = 0

    @property
    def failures(self):
        return [o for o in self.outcomes if o.status != "ok"]

    @property
    def exit_code(self):
        return 1 if self.failures else 0

    def to_dict(self):
        return {
            "schema_version": 1,
            "output_dir": self.output_dir,
            "skipped_expansions": self.skipped_expansions,
            "jobs": [asdict(o) for o in self.outcomes],
        }


def write_job_artifacts(stage1, bench, job_dir, **summary_fields) -> list:
    """Write a job's artifact set under `job_dir`; returns the paths written.

    `stage1.csv`, `sweep_<arm>_<split>.csv` and `sweep_<arm>.svg` per arm
    that ran, and `summary.json`, which holds `summary_fields` next to the
    stage-1 report, the arm summaries and the arm errors. Both arms are
    written by the same writers, a shared original arm too: its sweep runs
    once, and each job that shares it renders its own copy of its files.
    """
    job_dir = Path(job_dir)
    job_dir.mkdir(parents=True, exist_ok=True)
    artifacts = [write_stage1_csv(stage1_rows(stage1), job_dir / "stage1.csv")]
    arms = {}
    for arm in ("original", "processed"):
        result = getattr(bench, arm)
        if result is not None:
            artifacts += [write_sweep_csv(getattr(result, split_name), job_dir / f"sweep_{arm}_{split_name}.csv")
                          for split_name in _SPLITS]
            artifacts.append(write_sweep_svg(result, job_dir / f"sweep_{arm}.svg"))
            arms[arm] = sweep_summary(result)
    summary = dict(summary_fields, stage1=stage1.to_dict(), arms=arms, arm_errors=bench.errors)
    artifacts.append(write_summary_json(summary, job_dir / "summary.json"))
    return artifacts


def _original_of(job: JobSpec):
    """The (dataset entry, sensitive attribute) whose preparation the job shares."""
    return job.dataset.name, job.dataset.source_token(), job.dataset.schema, job.sensitive


def _arm_of(job: JobSpec):
    """What the jobs that share one original arm have in common."""
    return (_original_of(job), canonical_json(job.split), job.seed, job.model,
            canonical_json(job.model_params), job.selection_metric)


def _split_spec(job: JobSpec) -> SplitSpec:
    return SplitSpec(train=job.split["train"], validation=job.split["validation"],
                     test=job.split["test"], seed=job.seed)


def _prepare(dataset: DatasetEntry, sensitive, cache_dir):
    """The PreparedOriginal of one (dataset entry, sensitive attribute)."""
    if dataset.synthetic is not None:
        source, schema = make_synthetic(**dataset.synthetic), None
    else:
        source, schema = dataset.csv, load_schema(dataset.schema, sensitive=sensitive)
    return prepare_original(source, schema, cache_dir, dataset.name)


def _original_arm(job: JobSpec, prepared, cache_dir):
    """The original arm `job` shares: its SweepResult, or the arm's error text."""
    # the whole original is dropped once split, before the fit
    split = split_original(load_original(prepared.cache_key, cache_dir, prepared.name), _split_spec(job))
    return run_original_arm(split, job.model, job.model_params, job.seed, job.selection_metric)


def execute_job(job: JobSpec, prepared, output_dir, cache_dir, original_arm=None) -> list:
    """Run one job from the PreparedOriginal of its dataset: stage 1, stage 2, then its artifacts' paths.

    `original_arm` is the job's SweepResult or its error text, as `run_batch`
    runs it once for every job that shares it; when it is None, the job runs
    its original arm itself. A job that fails raises; `_call` records it.
    """
    original = load_original(prepared.cache_key, cache_dir, prepared.name)
    stage1 = run_prep_stage(prepared, job.method, job.method_params,
                            seed=job.seed, cache_dir=cache_dir, original=original)
    bench = run_bench_stage(
        stage1, model_name=job.model, model_params=job.model_params,
        split_spec=_split_spec(job), selection_metric=job.selection_metric,
        cache_dir=cache_dir, original=original, original_arm=original_arm,
    )
    return write_job_artifacts(stage1, bench, Path(output_dir) / job.job_id,
                               job=json.loads(job.canonical()), job_id=job.job_id)


def _call(fn, args):
    """A pool task's outcome: (fn(*args), or the error text of the Exception it raised; each warning
    its worker's filters let through, as (message, category, file, line); the seconds it took).

    The warnings raised before a failure are kept, so a failed task's are relayed too.
    """
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = fn(*args)
        except Exception as exc:
            result = error_text(exc)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught], time.perf_counter() - started


def _spawn_pool(size):
    # a spawned interpreter starts at OpenBLAS's default count
    return ProcessPoolExecutor(max_workers=size, mp_context=get_context("spawn"), initializer=_init_worker)


def _submit(pool, fn, tasks, futures, indices):
    for i in indices:
        with contextlib.suppress(BrokenProcessPool):
            futures[i] = pool.submit(_call, fn, tasks[i])


def _broken(futures):
    return [i for i, f in enumerate(futures) if f is None or isinstance(f.exception(), BrokenProcessPool)]


def _run_tasks(fn, tasks, pools, workers):
    """(results, seconds) of `_call(fn, args)` for args in tasks, each run in `pools[-1]`, set up by `_init_worker`.

    A dead worker breaks the pool, which fails every unfinished task with BrokenProcessPool. Those
    run again together in a spawn pool of `workers`, appended to `pools` so that the next call's
    tasks go to it; each that breaks it too runs alone in a one-worker spawn pool. A task whose last
    worker died, or whose result cannot be sent back, gives the pool's error text and 0.0 seconds.
    The warnings a task raised, failed or not, are issued again in this process, task by task in order.
    """
    futures = [None] * len(tasks)
    _submit(pools[-1], fn, tasks, futures, range(len(tasks)))
    again = _broken(futures)
    if again:
        pools.append(_spawn_pool(workers))
        _submit(pools[-1], fn, tasks, futures, again)
        for i in _broken(futures):
            with _spawn_pool(1) as alone:
                _submit(alone, fn, tasks, futures, [i])
    results, seconds = [], []
    for future in futures:
        error = future.exception()
        result, caught, took = future.result() if error is None else (error_text(error), (), 0.0)
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        results.append(result)
        seconds.append(took)
    return results, seconds


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy has loaded, or None.

    The library is found by path in this process's memory map, so only Linux
    builds that link OpenBLAS are pinned; elsewhere this is None.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            get = getattr(lib, name.format("get_num_threads"), None)
            set_ = getattr(lib, name.format("set_num_threads"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


def _init_worker():
    """Pool worker set-up: one BLAS thread, and a SIGTERM that leaves no half-written cache entry.

    Threaded BLAS in two workers on two cores waits on the other's core, and
    the thread count moves the last bits of BLAS products, on which artifacts must not depend.
    """
    threads = _openblas_threads()
    if threads is not None:
        _, set_threads = threads
        set_threads(1)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)


def _exit_on_sigterm(signum, frame):
    # a broken pool terminates its other workers, which may be mid-way
    # through a cache write
    remove_partial_writes()
    os._exit(128 + signum)


def run_batch(jobs, parallelism: int = 1, output_dir="fairbench_out",
              cache_dir=None, skipped_expansions: int = 0) -> BatchReport:
    """Run all jobs, at most `parallelism` at a time; failures never stop the batch.

    Each distinct (dataset entry, sensitive attribute) is first prepared once:
    ingested, cached and measured. The jobs of a preparation that failed fail
    with its error text. Then each distinct original arm (`_arm_of`) runs
    once, and its jobs receive its SweepResult or its error text,
    the pool's error text too when its worker died. Last, each job reads the
    original back from the cache once, for both stages, and runs its
    processed arm. Preparations, arms and jobs run as tasks of one process
    pool, at parallelism 1 too, so a dying worker never ends the batch; once a
    dead worker has broken it, the spawn pool that replaced it takes the rest.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(cache_dir) if cache_dir else output_dir / "cache"
    originals = {}
    for job in jobs:
        originals.setdefault(_original_of(job), (job.dataset, job.sensitive, cache_dir))

    workers = max(1, min(parallelism, len(jobs)))
    pools = [ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)]
    try:
        prepared = dict(zip(originals, _run_tasks(_prepare, list(originals.values()), pools, workers)[0]))
        ready = [job for job in jobs if not isinstance(prepared[_original_of(job)], str)]
        shared = {}
        for job in ready:
            shared.setdefault(_arm_of(job), (job, prepared[_original_of(job)], cache_dir))
        arms = dict(zip(shared, _run_tasks(_original_arm, list(shared.values()), pools, workers)[0]))
        done = zip(*_run_tasks(execute_job, [(job, prepared[_original_of(job)], output_dir, cache_dir,
                                              arms[_arm_of(job)]) for job in ready], pools, workers))
    finally:
        for pool in pools:
            pool.shutdown()
    outcomes = []
    for job in jobs:
        result = prepared[_original_of(job)]
        result, seconds = (result, 0.0) if isinstance(result, str) else next(done)
        failed = isinstance(result, str)
        outcomes.append(JobOutcome(job.job_id, "failed" if failed else "ok", result if failed else "", seconds,
                                   () if failed else tuple(map(str, result))))
    report = BatchReport(tuple(outcomes), str(output_dir), skipped_expansions)
    write_json(report.to_dict(), output_dir / "batch_report.json")
    return report
