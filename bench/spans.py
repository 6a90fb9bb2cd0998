"""Spans around the calls a batch makes into each fairbench layer.

`install` replaces each public function where its caller looks it up (stage 1
imports `cache_store` by name, so patching `fairbench.dataset.cache` alone
would miss it). A span records name, start, end, parent span and job id, plus
an optional key taken from the arguments before the call and an optional
detail computed after a call that returned; the time spent on that detail is
excluded from the parent's self time. Spans stay in memory and each
process appends them to `<sink>/spans-<pid>.jsonl` after every job: forked
pool workers inherit the wrappers, but skip `atexit`.

`summarize` turns the records of one traced batch into the per-layer metrics.
"""

import functools
import hashlib
import importlib
import json
import os
import time
from pathlib import Path

_REPORT_WRITERS = ("write_stage1_csv", "write_sweep_csv", "write_sweep_svg", "write_summary_json")


class Tracer:
    def __init__(self, sink_dir):
        self.sink_dir = Path(sink_dir)
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.records = []
        self.stack = []
        self.next_id = 0
        self.job_id = ""

    def _own(self):
        # a forked worker starts with a private buffer, not a copy of the parent's
        if os.getpid() != self.pid:
            self._reset()

    def span(self, name, fn, detail=None, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._own()
            parent = self.stack[-1] if self.stack else None
            rec = {"id": f"{self.pid}.{self.next_id}", "name": name, "job": self.job_id,
                   "parent": parent["id"] if parent else None, "skip": 0.0}
            if key is not None:
                rec["key"] = key(args)
            self.next_id += 1
            self.stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self.stack.pop()
                self.records.append(rec)
            if detail is not None:
                rec["detail"] = detail(args, result)
                if parent is not None:
                    parent["skip"] += time.perf_counter() - rec["end"]
            return result
        return wrapper

    def count(self, name, fn, value):
        """Record a count taken from the result, without opening a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._own()
            self.records.append({"name": name, "job": self.job_id, "count": value(result)})
            return result
        return wrapper

    def job(self, fn):
        traced = self.span("batch.execute_job", fn)

        @functools.wraps(fn)
        def wrapper(job, *args, **kwargs):
            self._own()
            self.job_id = job.job_id
            try:
                return traced(job, *args, **kwargs)
            finally:
                self.job_id = ""
                self.flush()
        return wrapper

    def flush(self):
        if not self.records:
            return
        self.sink_dir.mkdir(parents=True, exist_ok=True)
        with open(self.sink_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
        self.records = []


def _file_size(args, path):
    return os.path.getsize(path)


def _cache_hit(args, dataset):
    return dataset is not None


def _content_hash(args, value):
    ds = args[0]
    h = hashlib.blake2b(ds.features.tobytes(), digest_size=16)
    h.update(ds.labels.tobytes())
    return h.hexdigest()


def install(sink_dir) -> Tracer:
    """Wrap the layer boundaries of the batch path in this process; returns the tracer."""
    # import_module, because `fairbench.metrics.dataset_metrics` as an attribute
    # is the re-exported function, not the module
    runner, data_metrics, registry, stage1, stage2, sweep, preproc = (
        importlib.import_module(f"fairbench.{name}") for name in (
            "batch.runner", "metrics.dataset_metrics", "model.registry", "pipeline.stage1",
            "pipeline.stage2", "pipeline.sweep", "preproc"))

    tracer = Tracer(sink_dir)
    spans = [
        (runner, "load_schema", "dataset.load_schema", None),
        (runner, "run_prep_stage", "pipeline.run_prep_stage", None),
        (runner, "run_bench_stage", "pipeline.run_bench_stage", None),
        (runner, "stage1_rows", "report.format", None),
        (runner, "sweep_summary", "report.format", None),
        (stage1, "load_csv", "dataset.load_csv", None),
        (stage1, "encode", "dataset.encode", None),
        (stage1, "cache_store", "dataset.cache_store", _file_size),
        (stage1, "cache_load", "dataset.cache_load", _cache_hit),
        (stage1, "dataset_metrics", "metrics.dataset_metrics", None),
        (data_metrics, "consistency", "metrics.consistency", _content_hash),
        (preproc.FittedMethod, "transform_eval", "preproc.transform_eval", None),
        (stage2, "cache_load", "dataset.cache_load", _cache_hit),
        (stage2, "split_indices", "dataset.split_indices", None),
        (stage2, "fit_model", "model.fit_model", None),
        (stage2, "sweep_thresholds", "pipeline.sweep_thresholds", None),
        (stage2, "select_optimal_threshold", "pipeline.select_optimal_threshold", None),
        (sweep, "classification_metrics", "metrics.classification_metrics", None),
        (registry, "predict_scores", "model.predict_scores", None),
    ] + [(runner, name, "report.write", _file_size) for name in _REPORT_WRITERS]
    for owner, attr, name, detail in spans:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), detail))
    # keyed before the call, so a fit that raises still counts for its method
    for owner in (preproc, stage2):
        owner.fit_method = tracer.span("preproc.fit_method", owner.fit_method,
                                       key=lambda args: args[0])

    counts = [
        (registry, "train_logreg", "model.logreg_iterations", lambda m: m.iterations),
        (preproc, "lfr_fit", "preproc.lfr_iterations", lambda m: len(m.objective_trace) - 1),
        (preproc, "opp_fit", "preproc.opp_iterations", lambda m: len(m.penalty_trace) - 1),
    ]
    for owner, attr, name, value in counts:
        setattr(owner, attr, tracer.count(name, getattr(owner, attr), value))

    runner.execute_job = tracer.job(runner.execute_job)
    return tracer


# the span and count names that must see calls on every workload, since every
# layer runs in every job; the LFR and OPP iteration counts are added when the
# matrix holds those methods
REQUIRED = (
    "dataset.load_schema", "dataset.load_csv", "dataset.encode", "dataset.split_indices",
    "dataset.cache_store", "dataset.cache_load", "metrics.dataset_metrics",
    "metrics.consistency", "metrics.classification_metrics", "preproc.fit_method",
    "preproc.transform_eval", "model.fit_model", "model.predict_scores",
    "model.logreg_iterations", "pipeline.run_prep_stage", "pipeline.run_bench_stage",
    "pipeline.sweep_thresholds", "pipeline.select_optimal_threshold", "batch.execute_job",
    "report.format", "report.write",
)


def load_records(sink_dir):
    records = []
    for path in sorted(Path(sink_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh)
    return records


def summarize(records, batch_start, wall_s, parallelism, cpu_s, methods):
    """(per-layer metrics, problems) for one traced batch run."""
    spans = [r for r in records if "start" in r]
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    for s in spans:
        s["self"] = s["end"] - s["start"] - child_time.get(s["id"], 0.0) - s["skip"]

    def pick(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def details(name):
        # a call that raised has no detail
        return [s.get("detail", 0) for s in pick(name)]

    def self_s(*names):
        return sum(s["self"] for name in names for s in pick(name))

    def total(name):
        return sum(r["count"] for r in records if r["name"] == name and "count" in r)

    loads = pick("dataset.cache_load")
    consistency = pick("metrics.consistency")
    jobs = pick("batch.execute_job")
    job_s = sum(s["end"] - s["start"] for s in jobs)
    writes = pick("report.write")
    workers = min(parallelism, len(jobs)) or 1
    metrics = {
        "dataset.ingest_s": self_s("dataset.load_schema", "dataset.load_csv", "dataset.encode"),
        "dataset.ingest_calls": len(pick("dataset.load_csv")),
        "dataset.split_s": self_s("dataset.split_indices"),
        "dataset.cache_store_s": self_s("dataset.cache_store"),
        "dataset.cache_store_calls": len(pick("dataset.cache_store")),
        "dataset.cache_store_bytes": sum(details("dataset.cache_store")),
        "dataset.cache_load_s": self_s("dataset.cache_load"),
        "dataset.cache_load_calls": len(loads),
        "dataset.cache_hit_ratio": sum(details("dataset.cache_load")) / max(len(loads), 1),
        "metrics.consistency_s": self_s("metrics.consistency"),
        "metrics.consistency_calls": len(consistency),
        "metrics.consistency_unique_ratio":
            len(set(details("metrics.consistency"))) / max(len(consistency), 1),
        "metrics.dataset_metrics_self_s": self_s("metrics.dataset_metrics"),
        "metrics.classification_s": self_s("metrics.classification_metrics"),
        "metrics.classification_calls": len(pick("metrics.classification_metrics")),
        "preproc.eval_transform_s": self_s("preproc.transform_eval"),
        "preproc.lfr_iterations": total("preproc.lfr_iterations"),
        "preproc.opp_iterations": total("preproc.opp_iterations"),
        "model.fit_s": self_s("model.fit_model"),
        "model.fit_calls": len(pick("model.fit_model")),
        "model.logreg_iterations": total("model.logreg_iterations"),
        "model.score_s": self_s("model.predict_scores"),
        "pipeline.stage1_self_s": self_s("pipeline.run_prep_stage"),
        "pipeline.stage2_self_s": self_s("pipeline.run_bench_stage"),
        "pipeline.sweep_self_s": self_s("pipeline.sweep_thresholds"),
        "pipeline.select_s": self_s("pipeline.select_optimal_threshold"),
        "batch.job_s": job_s,
        "batch.queue_wait_s": sum(s["start"] - batch_start for s in jobs),
        "batch.parallel_efficiency": job_s / (workers * wall_s),
        "batch.cpu_s": cpu_s,
        "report.write_s": self_s("report.write", "report.format"),
        "report.files": len(writes),
        "report.bytes": sum(details("report.write")),
        "trace.coverage_ratio": 1.0 - self_s("batch.execute_job") / job_s if job_s else 0.0,
    }
    for method in ("RW", "DIR", "LFR", "OPP"):
        metrics[f"preproc.fit_s.{method}"] = sum(
            s["self"] for s in pick("preproc.fit_method", key=method))

    seen = {r["name"] for r in records}
    required = REQUIRED + tuple(f"preproc.{m.lower()}_iterations" for m in methods if m in ("LFR", "OPP"))
    problems = [f"trace: wrapper {name} recorded zero calls" for name in required if name not in seen]
    fitted = {s["key"] for s in pick("preproc.fit_method")}
    problems += [f"trace: no {m} fit recorded" for m in methods if m not in fitted]
    return metrics, problems
