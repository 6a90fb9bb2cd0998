"""Batch matrices: parsing, expansion, isolation, parallel and warm-cache determinism."""

import filecmp
import json
import multiprocessing
import os
import signal
import time
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
import yaml

from fairbench.batch import expand_jobs, parse_batch_yaml, run_batch, runner
from fairbench.dataset import cache_store, load_schema, make_synthetic
from fairbench.errors import FairbenchWarning, SchemaError

MINIMAL = """
datasets:
  - name: synth_a
    synthetic: {n: 200, disparity: 0.3, seed: 11}
methods: [RW]
models: [logreg]
seeds: [0]
"""

MATRIX = """
datasets:
  - name: synth_a
    synthetic: {n: 240, disparity: 0.3, seed: 11}
  - name: synth_b
    synthetic: {n: 240, disparity: 0.1, seed: 12}
methods:
  - name: RW
  - name: DIR
    params: {repair_level: 1.0}
models:
  - name: logreg
    params: {max_iter: 500}
seeds: [3]
selection_metric: SPD
"""


class TestParse:
    def test_minimal_spec_gets_defaults(self):
        spec = parse_batch_yaml(MINIMAL)
        assert spec.split == {"train": 0.70, "validation": 0.15, "test": 0.15}
        assert spec.parallelism == 1
        assert spec.selection_metric == "SPD"
        assert spec.methods == (("RW", {}),)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SchemaError, match="grid_size"):
            parse_batch_yaml(MINIMAL + "\ngrid_size: 50\n")

    def test_bad_split_sum_cites_rule(self):
        bad = MINIMAL + "\nsplit: {train: 0.9, validation: 0.15, test: 0.15}\n"
        with pytest.raises(SchemaError, match="sum to 1"):
            parse_batch_yaml(bad)

    def test_unknown_method_entry_key_has_path(self):
        bad = MINIMAL.replace("methods: [RW]", "methods:\n  - {name: RW, extra: 1}")
        with pytest.raises(SchemaError, match=r"methods\[0\]"):
            parse_batch_yaml(bad)

    def test_two_by_two_lists_parse(self):
        spec = parse_batch_yaml(MATRIX)
        assert len(spec.datasets) == 2
        assert len(spec.methods) == 2

    def test_invalid_selection_metric(self):
        with pytest.raises(SchemaError, match="selection_metric"):
            parse_batch_yaml(MINIMAL + "\nselection_metric: accuracy\n")

    @pytest.mark.parametrize("lines, key", [
        ("seeds: [0]\nparallelism: two", "parallelism"),
        ("seeds: [0]\nparallelism: 2.9", "parallelism"),
        ("seeds: [0]\nparallelism: true", "parallelism"),
        ("seeds: [0, x]", r"seeds\[1\]"),
    ])
    def test_non_integer_rejected_with_its_key(self, lines, key):
        with pytest.raises(SchemaError, match=key):
            parse_batch_yaml(MINIMAL.replace("seeds: [0]", lines))

    @pytest.mark.parametrize("old, new, key", [
        ("n: 200", "n: abc", r"datasets\[0\]\.synthetic\.n"),
        ("n: 200", "n: 200.7", r"datasets\[0\]\.synthetic\.n"),
        ("n: 200", "n: true", r"datasets\[0\]\.synthetic\.n"),
        ("seed: 11", "seed: 1.5", r"datasets\[0\]\.synthetic\.seed"),
        ("disparity: 0.3", "disparity: high", r"datasets\[0\]\.synthetic\.disparity"),
        ("disparity: 0.3", "disparity: false", r"datasets\[0\]\.synthetic\.disparity"),
        ("{n: 200, disparity: 0.3, seed: 11}", "[200]", r"datasets\[0\]\.synthetic"),
        ("seeds: [0]", "seeds: [0]\nsplit: {train: x, validation: 0.15, test: 0.15}", r"split\.train"),
        ("seeds: [0]", "seeds: [0]\nsplit: {train: 0.7, validation: true, test: 0.15}", r"split\.validation"),
        ("seeds: [0]", "seeds: [0]\nsplit: 0.7", "split"),
        ("seeds: [0]", "seeds: [0]\nsensitive_attributes: {synht_a: [group]}", r"sensitive_attributes\.synht_a"),
    ])
    def test_non_number_rejected_with_its_key(self, old, new, key):
        with pytest.raises(SchemaError, match=key):
            parse_batch_yaml(MINIMAL.replace(old, new))

    def test_csv_dataset_requires_schema(self):
        bad = """
datasets:
  - name: german
    csv: some.csv
methods: [RW]
models: [logreg]
seeds: [0]
"""
        with pytest.raises(SchemaError, match=r"datasets\[0\]"):
            parse_batch_yaml(bad)


class TestExpand:
    def test_cartesian_product(self):
        jobs, skipped = expand_jobs(parse_batch_yaml(MATRIX))
        assert len(jobs) == 4  # 2 datasets x 2 methods x 1 model x 1 seed
        assert skipped == 0
        assert len({j.job_id for j in jobs}) == 4

    def test_invalid_attribute_skipped_and_counted(self):
        spec = parse_batch_yaml(MATRIX + "\nsensitive_attributes: {synth_a: [group, nonexistent]}\n")
        jobs, skipped = expand_jobs(spec)
        assert len(jobs) == 4
        assert skipped == 2  # methods x models x seeds for the bad attribute

    def test_deterministic_ordering_and_ids(self):
        a, _ = expand_jobs(parse_batch_yaml(MATRIX))
        b, _ = expand_jobs(parse_batch_yaml(MATRIX))
        assert [j.job_id for j in a] == [j.job_id for j in b]
        canon = [j.canonical() for j in a]
        assert canon == sorted(canon)

    @pytest.mark.parametrize("dataset", ["german", "adult"])
    def test_default_attribute_is_the_one_load_schema_picks(self, dataset):
        schema = Path(runner.__file__).parents[1] / "dataset" / "schemas" / f"{dataset}.yaml"
        text = MINIMAL.replace("    synthetic: {n: 200, disparity: 0.3, seed: 11}",
                               f"    csv: {dataset}.csv\n    schema: {schema}")
        jobs, skipped = expand_jobs(parse_batch_yaml(text))
        assert skipped == 0
        assert [j.sensitive for j in jobs] == [load_schema(schema).sensitive_attribute] == ["sex"]

    def test_empty_expansion_is_error(self):
        spec = parse_batch_yaml(MINIMAL + "\nsensitive_attributes: {synth_a: [nope]}\n")
        with pytest.raises(SchemaError, match="zero jobs"):
            expand_jobs(spec)


def _toy_csv_entry(tmp_path):
    """A `datasets` entry for a 240-row CSV and its schema, both written under `tmp_path`."""
    rng = np.random.default_rng(5)
    sex = rng.choice(["M", "F"], 240)
    x = rng.normal(size=240)
    income = np.where(x + (sex == "M") > 0.5, "high", "low")
    csv, schema = tmp_path / "toy.csv", tmp_path / "toy.yaml"
    csv.write_text("x,sex,income\n" + "".join(
        f"{float(v)!r},{s},{y}\n" for v, s, y in zip(x, sex, income)), encoding="utf-8")
    schema.write_text(yaml.safe_dump({
        "name": "toy",
        "label": {"column": "income", "favorable": "high"},
        "sensitive_options": {"sex": {"column": "sex", "privileged": ["M"]}},
        "features": {"numeric": ["x"]},
    }), encoding="utf-8")
    return f"  - name: toy\n    csv: {csv}\n    schema: {schema}"


def job_files(root: Path):
    """Per-job artifact files, relative path -> absolute, batch report excluded."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "batch_report.json" and path.suffix != ".fpds":
            out[path.relative_to(root)] = path
    return out


_execute_job = runner.execute_job


def _exit_on_synth_b_dir(job, prepared, output_dir, cache_dir):
    """Kills the pool worker that runs the synth_b DIR job (module level, so it pickles)."""
    if job.dataset.name == "synth_b" and job.method == "DIR":
        os._exit(1)
    return _execute_job(job, prepared, output_dir, cache_dir)


_IMPORT_PID = os.getpid()


def _in_fork_pool():
    """True in a forked pool worker; a spawned interpreter imports this module afresh."""
    return os.getpid() != _IMPORT_PID


def _exit_in_pool_on_synth_b_dir(job, prepared, output_dir, cache_dir):
    """Kills every pool worker, forked or spawned, that runs synth_b DIR; in the caller's own process it runs the job."""
    if multiprocessing.parent_process() is not None and job.dataset.name == "synth_b" and job.method == "DIR":
        os._exit(1)
    return _execute_job(job, prepared, output_dir, cache_dir)


def _exit_forked_on_synth_b_dir(job, prepared, output_dir, cache_dir):
    """Kills the fork-pool worker that runs synth_b DIR, so that job runs again in the spawn pool."""
    if _in_fork_pool() and job.dataset.name == "synth_b" and job.method == "DIR":
        os._exit(1)
    return _execute_job(job, prepared, output_dir, cache_dir)


def _exit_forked_deleting_toy_csv(job, prepared, output_dir, cache_dir):
    """Deletes the toy CSV in the fork-pool worker that runs toy DIR, then kills that worker."""
    if _in_fork_pool() and job.dataset.name == "toy" and job.method == "DIR":
        os.remove(job.dataset.csv)
        os._exit(1)
    return _execute_job(job, prepared, output_dir, cache_dir)


_prepare_original = runner.prepare_original


def _exit_forked_preparing_synth_b(source, schema, cache_dir, dataset_name):
    """Kills the fork-pool worker that prepares synth_b's original."""
    if _in_fork_pool() and dataset_name == "synth_b":
        os._exit(1)
    return _prepare_original(source, schema, cache_dir, dataset_name)


_prepare = runner._prepare


def _exit_preparing_synth_b(dataset, sensitive, cache_dir):
    """Kills every pool worker, forked or spawned, that prepares synth_b's original."""
    if dataset.name == "synth_b":
        os._exit(1)
    return _prepare(dataset, sensitive, cache_dir)


def _store_stalling_in_fsync(cache_dir, writing):
    """A pool worker's set-up, then a cache write that stalls before its rename (runs in a forked child)."""
    runner._init_worker()

    def stall(fd):
        writing.set()
        time.sleep(60)

    os.fsync = stall
    cache_store(make_synthetic(seed=0, n=50, disparity=0.0), "key", cache_dir)


def _record_blas_threads(job, prepared, output_dir, cache_dir):
    """Writes the BLAS thread count the job runs with to `<output_dir>/<job id>.threads`."""
    get, _ = runner._openblas_threads()
    (Path(output_dir) / f"{job.job_id}.threads").write_text(str(get()), encoding="utf-8")
    return runner.JobOutcome(job_id=job.job_id, status="ok", error="", wall_time_s=0.0, artifacts=())


def _record_blas_threads_outside_fork_pool(job, prepared, output_dir, cache_dir):
    """Kills every fork-pool worker, so each job records its count in the spawn re-run pool."""
    if _in_fork_pool():
        os._exit(1)
    return _record_blas_threads(job, prepared, output_dir, cache_dir)


@pytest.fixture
def caller_blas_threads():
    """This process's OpenBLAS thread count getter, with the count set to 3 and restored after.

    A worker that inherited 3 cannot pass for one that was pinned to 1.
    """
    threads = runner._openblas_threads()
    if threads is None:
        pytest.skip("numpy does not use OpenBLAS here")
    get, set_ = threads
    previous = get()
    set_(3)
    yield get
    set_(previous)


class TestRun:
    def test_four_jobs_with_one_failure_isolated(self, tmp_path):
        text = MATRIX.replace(
            "  - name: synth_b\n    synthetic: {n: 240, disparity: 0.1, seed: 12}",
            "  - name: broken\n    csv: /nonexistent/x.csv\n    schema: /nonexistent/s.yaml",
        )
        jobs, _ = expand_jobs(parse_batch_yaml(text))
        assert len(jobs) == 4
        report = run_batch(jobs, parallelism=1, output_dir=tmp_path / "out")
        assert len(report.failures) == 2  # both methods on the broken dataset
        assert report.exit_code == 1
        ok = [o for o in report.outcomes if o.status == "ok"]
        assert len(ok) == 2
        for outcome in ok:
            job_dir = tmp_path / "out" / outcome.job_id
            assert (job_dir / "stage1.csv").is_file()
            assert (job_dir / "summary.json").is_file()

    def test_parallelism_one_vs_four_byte_identical(self, tmp_path):
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        run_batch(jobs, parallelism=1, output_dir=tmp_path / "serial")
        run_batch(jobs, parallelism=4, output_dir=tmp_path / "parallel")
        serial = job_files(tmp_path / "serial")
        parallel = job_files(tmp_path / "parallel")
        assert set(serial) == set(parallel)
        assert len(serial) >= 4 * 8  # stage1 + 4 sweep csvs + 2 svgs + summary per job
        for rel in serial:
            assert filecmp.cmp(serial[rel], parallel[rel], shallow=False), rel

    def test_spawn_rerun_byte_identical_to_serial(self, tmp_path, monkeypatch):
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        run_batch(jobs, parallelism=1, output_dir=tmp_path / "serial")
        monkeypatch.setattr(runner, "execute_job", _exit_forked_on_synth_b_dir)
        report = run_batch(jobs, parallelism=2, output_dir=tmp_path / "rerun")
        assert report.exit_code == 0, [o.error for o in report.failures]
        serial = job_files(tmp_path / "serial")
        rerun = job_files(tmp_path / "rerun")
        assert set(serial) == set(rerun)
        for rel in serial:
            assert filecmp.cmp(serial[rel], rerun[rel], shallow=False), rel

    def test_warm_cache_rerun_reproduces_outputs(self, tmp_path):
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        cache = tmp_path / "cache"
        run_batch(jobs, parallelism=1, output_dir=tmp_path / "first", cache_dir=cache)
        fpds_before = {p.name: p.stat().st_mtime for p in cache.glob("*.fpds")}
        run_batch(jobs, parallelism=1, output_dir=tmp_path / "second", cache_dir=cache)
        first = job_files(tmp_path / "first")
        second = job_files(tmp_path / "second")
        assert set(first) == set(second)
        for rel in first:
            assert filecmp.cmp(first[rel], second[rel], shallow=False), rel
        # warm cache entries were reused, not rewritten
        fpds_after = {p.name: p.stat().st_mtime for p in cache.glob("*.fpds")}
        assert set(fpds_before) <= set(fpds_after)

    def test_batch_report_written(self, tmp_path):
        jobs, _ = expand_jobs(parse_batch_yaml(MINIMAL))
        report = run_batch(jobs, parallelism=1, output_dir=tmp_path / "out")
        assert (tmp_path / "out" / "batch_report.json").is_file()
        assert report.exit_code == 0
        doc = yaml.safe_load((tmp_path / "out" / "batch_report.json").read_text())
        assert doc["jobs"][0]["status"] == "ok"

    def test_damaged_cache_entries_are_recomputed(self, tmp_path):
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        cache = tmp_path / "cache"
        first_report = run_batch(jobs, parallelism=1, output_dir=tmp_path / "first", cache_dir=cache)
        summary = json.loads((tmp_path / "first" / jobs[0].job_id / "summary.json").read_text())
        original = cache / f"{summary['stage1']['original_cache_key']}.fpds"
        processed = cache / f"{summary['stage1']['processed_cache_key']}.fpds"
        original_bytes, processed_bytes = original.read_bytes(), processed.read_bytes()
        first = job_files(tmp_path / "first")

        # the warning is raised in a pool worker and issued again in this process
        for parallelism in (1, 2):
            original.write_bytes(original_bytes[: len(original_bytes) // 2])
            processed.write_bytes(b"FPDSTXT\nversion 1\n")
            with pytest.warns(FairbenchWarning, match=original.name):
                report = run_batch(jobs, parallelism=parallelism, output_dir=tmp_path / f"second-{parallelism}",
                                   cache_dir=cache)
            assert first_report.exit_code == report.exit_code == 0
            assert original.read_bytes() == original_bytes
            assert processed.read_bytes() == processed_bytes
            second = job_files(tmp_path / f"second-{parallelism}")
            assert set(first) == set(second)
            for rel in first:
                assert filecmp.cmp(first[rel], second[rel], shallow=False), rel

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_missing_csv_fails_its_jobs_with_the_ingest_error(self, tmp_path, parallelism):
        schema = Path(runner.__file__).parents[1] / "dataset" / "schemas" / "german.yaml"
        text = MATRIX.replace(
            "  - name: synth_b\n    synthetic: {n: 240, disparity: 0.1, seed: 12}",
            f"  - name: missing\n    csv: {tmp_path / 'absent.csv'}\n    schema: {schema}",
        )
        jobs, _ = expand_jobs(parse_batch_yaml(text))
        report = run_batch(jobs, parallelism=parallelism, output_dir=tmp_path / "out")
        for job, outcome in zip(jobs, report.outcomes):
            if job.dataset.name == "missing":
                assert outcome.status == "failed"
                assert outcome.error == runner._prepare(job.dataset, job.sensitive, tmp_path / "alone")
                assert "absent.csv" in outcome.error
            else:
                assert outcome.status == "ok", (job.job_id, outcome.error)

    @pytest.mark.parametrize("document, error", [
        ("name: [unclosed\n", "invalid YAML"),
        ("- name: toy\n", "schema document must be a mapping"),
        ("name: toy\nlabel: {column: income, favorable: high}\ndefault_sensitive: gender\n"
         "sensitive_options: {sex: {column: sex, privileged: [M]}}\nfeatures: {numeric: [x]}\n",
         "sensitive attribute 'gender' not declared"),
    ], ids=["invalid-yaml", "list-document", "undeclared-default"])
    def test_malformed_schema_fails_its_jobs_not_the_expansion(self, tmp_path, document, error):
        schema = tmp_path / "bad.yaml"
        schema.write_text(document, encoding="utf-8")
        text = MINIMAL.replace("    synthetic: {n: 200, disparity: 0.3, seed: 11}",
                               f"    csv: {tmp_path / 'bad.csv'}\n    schema: {schema}")
        jobs, skipped = expand_jobs(parse_batch_yaml(text))
        assert (len(jobs), skipped) == (1, 0)
        report = run_batch(jobs, parallelism=1, output_dir=tmp_path / "out")
        [outcome] = report.outcomes
        assert outcome.status == "failed"
        with pytest.raises(SchemaError, match=error) as raised:
            load_schema(schema)
        assert outcome.error == runner._error_text(raised.value)

    def test_dead_worker_in_preparation_fails_no_job(self, tmp_path, monkeypatch):
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        run_batch(jobs, parallelism=1, output_dir=tmp_path / "serial")
        monkeypatch.setattr(runner, "prepare_original", _exit_forked_preparing_synth_b)
        # the broken pool terminates the other worker, which may leave a
        # temp file in the cache, so the cache sits outside the compared tree
        report = run_batch(jobs, parallelism=2, output_dir=tmp_path / "rerun", cache_dir=tmp_path / "cache")
        # synth_b's preparation runs again in the spawn pool
        assert report.exit_code == 0, [o.error for o in report.failures]
        serial = job_files(tmp_path / "serial")
        rerun = job_files(tmp_path / "rerun")
        assert set(serial) == set(rerun)
        for rel in serial:
            assert filecmp.cmp(serial[rel], rerun[rel], shallow=False), rel

    def test_rerun_job_reads_its_prepared_original_not_the_csv(self, tmp_path, monkeypatch):
        text = MATRIX.replace("  - name: synth_b\n    synthetic: {n: 240, disparity: 0.1, seed: 12}",
                              _toy_csv_entry(tmp_path))
        jobs, _ = expand_jobs(parse_batch_yaml(text))
        run_batch(jobs, parallelism=1, output_dir=tmp_path / "serial")
        monkeypatch.setattr(runner, "execute_job", _exit_forked_deleting_toy_csv)
        report = run_batch(jobs, parallelism=2, output_dir=tmp_path / "rerun", cache_dir=tmp_path / "cache")
        assert not (tmp_path / "toy.csv").exists()
        assert report.exit_code == 0, [o.error for o in report.failures]
        serial = job_files(tmp_path / "serial")
        rerun = job_files(tmp_path / "rerun")
        assert set(serial) == set(rerun)
        for rel in serial:
            assert filecmp.cmp(serial[rel], rerun[rel], shallow=False), rel

    def test_preparation_whose_every_worker_dies_fails_only_its_jobs(self, tmp_path, monkeypatch):
        text = MATRIX.replace("  - name: synth_a\n    synthetic: {n: 240, disparity: 0.3, seed: 11}",
                              _toy_csv_entry(tmp_path))
        monkeypatch.setattr(runner, "_prepare", _exit_preparing_synth_b)
        jobs, _ = expand_jobs(parse_batch_yaml(text))
        report = run_batch(jobs, parallelism=2, output_dir=tmp_path / "out", cache_dir=tmp_path / "cache")
        assert [o.job_id for o in report.outcomes] == [j.job_id for j in jobs]
        for job, outcome in zip(jobs, report.outcomes):
            if job.dataset.name == "synth_b":
                assert outcome.status == "failed"
                assert "BrokenProcessPool" in outcome.error
            else:
                assert outcome.status == "ok", (job.job_id, outcome.error)

    def test_worker_terminated_mid_write_leaves_no_temp_file(self, tmp_path):
        # what a broken pool does to the workers still running
        context = get_context("fork")
        writing = context.Event()
        worker = context.Process(target=_store_stalling_in_fsync, args=(tmp_path, writing))
        worker.start()
        assert writing.wait(30)
        worker.terminate()
        worker.join(30)
        assert worker.exitcode == 128 + signal.SIGTERM
        assert list(tmp_path.iterdir()) == []

    def test_dead_worker_at_parallelism_one_fails_its_job_not_the_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "execute_job", _exit_in_pool_on_synth_b_dir)
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        report = run_batch(jobs, parallelism=1, output_dir=tmp_path / "out", cache_dir=tmp_path / "cache")
        for job, outcome in zip(jobs, report.outcomes):
            if job.dataset.name == "synth_b" and job.method == "DIR":
                # its re-run worker in the spawn pool dies too
                assert outcome.status == "failed"
                assert "BrokenProcessPool" in outcome.error
            else:
                assert outcome.status == "ok", (job.job_id, outcome.error)
        doc = json.loads((tmp_path / "out" / "batch_report.json").read_text())
        assert [j["status"] for j in doc["jobs"]] == [o.status for o in report.outcomes]

    def test_dead_worker_fails_its_job_not_the_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "execute_job", _exit_on_synth_b_dir)
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        report = run_batch(jobs, parallelism=2, output_dir=tmp_path / "out")
        assert [o.job_id for o in report.outcomes] == [j.job_id for j in jobs]
        for job, outcome in zip(jobs, report.outcomes):
            if job.dataset.name == "synth_b" and job.method == "DIR":
                assert outcome.status == "failed"
                assert "BrokenProcessPool" in outcome.error
            else:
                # jobs the broken pool failed run again in a pool of their own
                assert outcome.status == "ok", (job.job_id, outcome.error)
        doc = json.loads((tmp_path / "out" / "batch_report.json").read_text())
        assert [j["status"] for j in doc["jobs"]] == [o.status for o in report.outcomes]


class TestBlasThreads:
    def test_openblas_found_when_numpy_links_it(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas:
            pytest.skip(f"numpy links {blas}, not OpenBLAS")
        assert runner._openblas_threads() is not None

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_jobs_run_with_one_thread_and_caller_keeps_its_count(
            self, tmp_path, monkeypatch, caller_blas_threads, parallelism):
        monkeypatch.setattr(runner, "execute_job", _record_blas_threads)
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        report = run_batch(jobs, parallelism=parallelism, output_dir=tmp_path)
        assert report.exit_code == 0, [o.error for o in report.failures]
        assert [(tmp_path / f"{j.job_id}.threads").read_text() for j in jobs] == ["1"] * len(jobs)
        assert caller_blas_threads() == 3

    def test_spawn_rerun_pool_runs_with_one_thread(self, tmp_path, monkeypatch, caller_blas_threads):
        # a spawned interpreter reads this when OpenBLAS loads; without the pin
        # it would run at OpenBLAS's default, the core count
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setattr(runner, "execute_job", _record_blas_threads_outside_fork_pool)
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        report = run_batch(jobs, parallelism=2, output_dir=tmp_path)
        assert report.exit_code == 0, [o.error for o in report.failures]
        assert [(tmp_path / f"{j.job_id}.threads").read_text() for j in jobs] == ["1"] * len(jobs)
        assert caller_blas_threads() == 3
