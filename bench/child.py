"""One fresh interpreter per measurement, started by `run.py` from the checkout root.

    python3 bench/child.py setup <batch.yaml> <start>
        import fairbench, parse and expand the matrix, then print the seconds
        since <start>, a `time.perf_counter()` reading taken by the caller.
    python3 bench/child.py batch <batch.yaml> <out_dir> <cache_dir> <result.json> [<span_dir>]
        run the matrix through `run_batch` and write wall time, CPU time, peak
        RSS and the job outcomes to <result.json>; with <span_dir>, trace it.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))


def setup(config, start):
    from fairbench.batch import expand_jobs, parse_batch_yaml

    expand_jobs(parse_batch_yaml(Path(config).read_text(encoding="utf-8")))
    print(repr(time.perf_counter() - float(start)))


def _cpu_s(resource):
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def batch(config, out_dir, cache_dir, result_path, span_dir=None):
    import json
    import resource

    from fairbench.batch import expand_jobs, parse_batch_yaml, run_batch

    spec = parse_batch_yaml(Path(config).read_text(encoding="utf-8"))
    jobs, _ = expand_jobs(spec)
    tracer = None
    if span_dir:
        import spans
        # pool workers fork after this and inherit the wrappers
        tracer = spans.install(span_dir)

    cpu0 = _cpu_s(resource)
    start = time.perf_counter()
    report = run_batch(jobs, parallelism=spec.parallelism, output_dir=out_dir, cache_dir=cache_dir)
    wall = time.perf_counter() - start
    cpu = _cpu_s(resource) - cpu0
    if tracer is not None:
        tracer.flush()

    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest pool worker
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "wall_s": wall,
        "start": start,
        "cpu_s": cpu,
        "peak_rss_kib": peak_kib,
        "parallelism": spec.parallelism,
        "jobs": [  # outcomes come back in job order
            {"job_id": o.job_id, "status": o.status, "error": o.error,
             "dataset": job.dataset.name, "method": job.method, "sensitive": job.sensitive, "seed": job.seed}
            for job, o in zip(jobs, report.outcomes)
        ],
    }
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    {"setup": setup, "batch": batch}[mode](*rest)
