"""Batch matrices: parsing, expansion, isolation, parallel and warm-cache determinism."""

import filecmp
import hashlib
import importlib
import json
import multiprocessing
import os
import re
import signal
import struct
import time
import warnings
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest
import yaml

from fairbench.batch import expand_jobs, parse_batch_yaml, run_batch, runner
from fairbench.dataset import cache_store, load_schema, make_synthetic
from fairbench.dataset import cache as cache_module
from fairbench.errors import FairbenchWarning, FitError, SchemaError, error_text
from fairbench.preproc import SEEDED_METHODS

from conftest import flip_first_feature
from oracles import oracle_v2_entry

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

    @pytest.mark.parametrize("old, new, message", [
        ("methods: [RW]", "methods: [RW, SMOTE]",
         "methods[1].name: unknown method 'SMOTE'; expected one of ['RW', 'LFR', 'DIR', 'OPP']"),
        ("methods: [RW]", "methods: [{name: smote, params: {k: 5}}]", "methods[0].name: unknown method 'smote'"),
        ("models: [logreg]", "models: [logreg, svm]", "models[1].name: unknown model 'svm'; expected one of ['logreg']"),
    ])
    def test_unknown_method_or_model_is_refused_at_parse(self, old, new, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            parse_batch_yaml(MINIMAL.replace(old, new))

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
        ("seeds: [0, -1]", r"seeds\[1\] must be >= 0, got -1"),
    ])
    def test_non_integer_rejected_with_its_key(self, lines, key):
        with pytest.raises(SchemaError, match=key):
            parse_batch_yaml(MINIMAL.replace("seeds: [0]", lines))

    @pytest.mark.parametrize("old, new, key", [
        ("n: 200", "n: abc", r"datasets\[0\]\.synthetic\.n"),
        ("n: 200", "n: 200.7", r"datasets\[0\]\.synthetic\.n"),
        ("n: 200", "n: true", r"datasets\[0\]\.synthetic\.n"),
        ("seed: 11", "seed: 1.5", r"datasets\[0\]\.synthetic\.seed"),
        ("seed: 11", "seed: -3", r"datasets\[0\]\.synthetic\.seed must be >= 0, got -3"),
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

    @pytest.mark.parametrize("old, new, message", [
        ("datasets:\n  - name: synth_a\n    synthetic: {n: 200, disparity: 0.3, seed: 11}", "datasets: {a: 1}",
         "datasets must be a non-empty list, got dict"),
        ("methods: [RW]", "methods: [{name: RW, params: [1]}]", "methods[0].params must be a mapping, got list"),
        ("seeds: [0]", "seeds: [0]\nsensitive_attributes: {synth_a: group}",
         "sensitive_attributes.synth_a must be a non-empty list, got str"),
        ("seeds: [0]", "seeds: [0]\nsplit: 0.7", "split must be a mapping, got float"),
        ("{n: 200, disparity: 0.3, seed: 11}", "[200]", "datasets[0].synthetic must be a mapping, got list"),
        ("methods: [RW]", "methods: [{name: RW, extra: 1}]",
         "methods[0]: unknown keys ['extra'] (accepts ['name', 'params'])"),
        ("methods: [RW]", "methods: [{name: RW, extra: 1, 2: x}]",
         "methods[0]: unknown keys [2, 'extra'] (accepts ['name', 'params'])"),
        ("seeds: [0]", "seeds: []", "seeds must be a non-empty list, got []"),
        ("seeds: [0]", "", "seeds must be a non-empty list, got None"),
        # a list once named the output directory "['a', 'b']"
        ("seeds: [0]", "seeds: [0]\noutput: [a, b]", "output must be a string, got list"),
        ("synthetic: {n: 200, disparity: 0.3, seed: 11}", "csv: [a.csv]\n    schema: s.yaml",
         "datasets[0].csv must be a string, got list"),
        ("synthetic: {n: 200, disparity: 0.3, seed: 11}", "csv: a.csv\n    schema: 5",
         "datasets[0].schema must be a string, got int"),
    ])
    def test_block_of_the_wrong_type_names_its_key(self, old, new, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            parse_batch_yaml(MINIMAL.replace(old, new))

    @pytest.mark.parametrize("paths", ["csv: a.csv", "schema: s.yaml", "csv: a.csv\n    schema: s.yaml"])
    def test_a_synthetic_entry_with_a_file_is_refused(self, paths):
        # as `fairbench prep` refuses --csv or --schema with a synthetic --dataset
        text = MATRIX.replace("synthetic: {n: 240, disparity: 0.1, seed: 12}",
                              f"synthetic: {{n: 240, disparity: 0.1, seed: 12}}\n    {paths}")
        with pytest.raises(SchemaError, match=re.escape(
                "datasets[1]: csv and schema do not apply to a synthetic dataset")):
            parse_batch_yaml(text)

    @pytest.mark.parametrize("name", [r"a\rb", r"a\nb", r"a\tb"])
    def test_a_dataset_name_that_does_not_print_is_refused(self, name):
        # a "\r" in a name once split the name's stage-1 CSV row in two
        with pytest.raises(SchemaError, match=re.escape(f"datasets[0].name: '{name}' holds a character that "
                                                        "does not print")):
            parse_batch_yaml(MINIMAL.replace("name: synth_a", f'name: "{name}"'))

    def test_split_rules_are_split_specs(self):
        with pytest.raises(SchemaError, match=re.escape("split: test fraction must be in (0,1), got 0.0")):
            parse_batch_yaml(MINIMAL + "\nsplit: {train: 0.7, validation: 0.3, test: 0.0}\n")

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

    def test_the_readme_example_expands_from_the_repository_root(self, monkeypatch):
        root = Path(__file__).parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        example = readme.split("A batch config looks like:", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(root)
        jobs, skipped = expand_jobs(parse_batch_yaml(example))
        # german under sex and age, synth under group; 2 methods, 3 seeds
        assert (len(jobs), skipped) == (18, 0)

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

    @pytest.mark.parametrize("old, new", [
        ("seeds: [0]", "seeds: [0, 0]"),
        ("seeds: [0]", "seeds: [0]\nsensitive_attributes: {synth_a: [group, group]}"),
        ("methods: [RW]", "methods: [RW, {name: RW}]"),
    ])
    def test_repeated_entry_names_the_job(self, old, new):
        spec = parse_batch_yaml(MINIMAL.replace(old, new))
        with pytest.raises(SchemaError, match=re.escape(
                "job id collision in batch expansion: the job for dataset 'synth_a', attribute 'group', "
                "method 'RW', model 'logreg', seed 0 repeats because an entry is listed twice")):
            expand_jobs(spec)

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


def _alone(fn, *args):
    """fn(*args) as a batch task gives it: its result, or the error text of the exception it raised."""
    result, _, _ = runner._call(fn, args)
    return result


_execute_job = runner.execute_job


def _exit_on_synth_b_dir(job, prepared, output_dir, cache_dir, original_arm=None):
    """Kills the pool worker that runs the synth_b DIR job (module level, so it pickles)."""
    if job.dataset.name == "synth_b" and job.method == "DIR":
        os._exit(1)
    return _execute_job(job, prepared, output_dir, cache_dir, original_arm)


_IMPORT_PID = os.getpid()


def _in_fork_pool():
    """True in a forked pool worker; a spawned interpreter imports this module afresh."""
    return os.getpid() != _IMPORT_PID


def _exit_in_pool_on_synth_b_dir(job, prepared, output_dir, cache_dir, original_arm=None):
    """Kills every pool worker, forked or spawned, that runs synth_b DIR; in the caller's own process it runs the job."""
    if multiprocessing.parent_process() is not None and job.dataset.name == "synth_b" and job.method == "DIR":
        os._exit(1)
    return _execute_job(job, prepared, output_dir, cache_dir, original_arm)


def _exit_forked_on_synth_b_dir(job, prepared, output_dir, cache_dir, original_arm=None):
    """Kills the fork-pool worker that runs synth_b DIR, so that job runs again in the spawn pool."""
    if _in_fork_pool() and job.dataset.name == "synth_b" and job.method == "DIR":
        os._exit(1)
    return _execute_job(job, prepared, output_dir, cache_dir, original_arm)


def _exit_forked_deleting_toy_csv(job, prepared, output_dir, cache_dir, original_arm=None):
    """Deletes the toy CSV in the fork-pool worker that runs toy DIR, then kills that worker."""
    if _in_fork_pool() and job.dataset.name == "toy" and job.method == "DIR":
        os.remove(job.dataset.csv)
        os._exit(1)
    return _execute_job(job, prepared, output_dir, cache_dir, original_arm)


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


_original_arm = runner._original_arm


def _exit_running_synth_b_original_arm(job, prepared, cache_dir):
    """Kills every pool worker, forked or spawned, that runs synth_b's original arm."""
    if job.dataset.name == "synth_b":
        os._exit(1)
    return _original_arm(job, prepared, cache_dir)


stage2 = importlib.import_module("fairbench.pipeline.stage2")
_run_arm = stage2._run_arm


def _original_arm_down(arm, *args):
    if arm == "original":
        raise RuntimeError("original arm down")
    return _run_arm(arm, *args)


def _every_arm_down(arm, *args):
    raise RuntimeError(f"{arm} arm down")


def _warn_then_raise(*args, **kwargs):
    warnings.warn("a task warned before it failed", FairbenchWarning)
    raise RuntimeError("task down")


def _store_stalling_in_fsync(cache_dir, writing):
    """A pool worker's set-up, then a cache write that stalls before its rename (runs in a forked child)."""
    runner._init_worker()

    def stall(fd):
        writing.set()
        time.sleep(60)

    os.fsync = stall
    cache_store(cache_module.dumps(make_synthetic(seed=0, n=50, disparity=0.0)), "key", cache_dir)


def _record_blas_threads(job, prepared, output_dir, cache_dir, original_arm=None):
    """Writes the BLAS thread count the job runs with to `<output_dir>/<job id>.threads`."""
    get, _ = runner._openblas_threads()
    (Path(output_dir) / f"{job.job_id}.threads").write_text(str(get()), encoding="utf-8")
    return []


def _record_blas_threads_outside_fork_pool(job, prepared, output_dir, cache_dir, original_arm=None):
    """Kills every fork-pool worker, so each job records its count in the spawn re-run pool."""
    if _in_fork_pool():
        os._exit(1)
    return _record_blas_threads(job, prepared, output_dir, cache_dir, original_arm)


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


PAIRED = """
datasets:
{toy}
methods:
  - name: RW
  - name: DIR
  - name: LFR
    params: {{prototypes: 5, max_iter: 300}}
  - name: OPP
    params: {{columns: [x]}}
models: [logreg]
seeds: [3]
"""


@pytest.fixture(scope="module")
def paired_batch(tmp_path_factory):
    """(root, jobs) of one CSV x RW, DIR, LFR and OPP x seed 3, run at parallelism 1 under `root/out`."""
    root = tmp_path_factory.mktemp("paired")
    jobs, _ = expand_jobs(parse_batch_yaml(PAIRED.format(toy=_toy_csv_entry(root))))
    report = run_batch(jobs, parallelism=1, output_dir=root / "out", cache_dir=root / "cache")
    assert report.exit_code == 0, [o.error for o in report.failures]
    return root, jobs


class TestJobSeed:
    """A job's seed is its config seed: one split per (dataset, attribute, seed), and a job equals prep + bench."""

    def test_the_jobs_of_one_dataset_and_seed_share_their_split_and_original_arm(self, paired_batch):
        root, jobs = paired_batch
        assert len(jobs) == 4
        dirs = [root / "out" / job.job_id for job in jobs]
        summaries = [json.loads((d / "summary.json").read_text()) for d in dirs]
        assert {s["stage1"]["seed"] for s in summaries} == {3}
        assert len({arm["split_hash"] for s in summaries for arm in s["arms"].values()}) == 1
        for name in ("sweep_original_validation.csv", "sweep_original_test.csv", "sweep_original.svg"):
            assert len({(d / name).read_bytes() for d in dirs}) == 1, name

    def test_a_job_equals_prep_then_bench_at_its_seed(self, paired_batch, tmp_path):
        from fairbench.cli import main

        root, jobs = paired_batch
        for job in jobs:
            params = [f"{k}={json.dumps(v)}" for k, v in job.method_params.items()]
            prep, bench = tmp_path / job.method / "prep", tmp_path / job.method / "bench"
            assert main(["prep", "--dataset", job.dataset.name, "--schema", job.dataset.schema,
                         "--csv", job.dataset.csv, "--sensitive", job.sensitive, "--method", job.method,
                         *(a for p in params for a in ("--param", p)), "--seed", str(job.seed),
                         "--out", str(prep), "--cache-dir", str(tmp_path / "cache")]) == 0
            report_path, = prep.glob("*.json")
            assert main(["bench", "--from", str(report_path), "--out", str(bench),
                         "--cache-dir", str(tmp_path / "cache")]) == 0
            job_dir = root / "out" / job.job_id
            names = sorted(p.name for p in job_dir.iterdir())
            assert names == sorted(p.name for p in bench.iterdir())
            for name in names:
                if name != "summary.json":
                    assert (bench / name).read_bytes() == (job_dir / name).read_bytes(), (job.method, name)
            summary = json.loads((job_dir / "summary.json").read_text())
            assert summary.pop("job")["method"] == job.method and summary.pop("job_id") == job.job_id
            assert json.loads((bench / "summary.json").read_text()) == summary

    def test_seedless_records_are_shared_across_seeds_and_models(self, tmp_path, monkeypatch):
        # the module, not the function that `fairbench.metrics` re-exports under its name
        dm = importlib.import_module("fairbench.metrics.dataset_metrics")
        jobs, _ = expand_jobs(parse_batch_yaml("""
datasets:
  - name: synth_a
    synthetic: {n: 200, disparity: 0.3, seed: 11}
methods: [DIR]
models:
  - name: logreg
    params: {l2: 1.0e-4}
  - name: logreg
    params: {l2: 1.0e-2}
seeds: [0, 1]
"""))
        assert len(jobs) == 4
        passes, knn = [], dm._knn_label_means_blocked
        monkeypatch.setattr(dm, "_knn_label_means_blocked", lambda *a, **kw: passes.append(1) or knn(*a, **kw))
        cache = tmp_path / "cache"
        # the calls a batch at parallelism 1 makes, in this process, where the passes can be counted
        prepared = runner._prepare(jobs[0].dataset, jobs[0].sensitive, cache)
        for job in jobs:
            result = _alone(runner.execute_job, job, prepared, tmp_path / "out", cache)
            assert not isinstance(result, str), result
        # the original's record and one DIR record, whatever the seed or model
        assert len(list(cache.glob("*.metrics.fpds"))) == 2
        assert len(passes) == 2


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
        processed = cache_module.record_path(cache, summary['stage1']['processed_cache_key'])
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

    @pytest.mark.parametrize("damage", ["flipped", "missing"])
    def test_changed_original_entry_is_rewritten_before_its_jobs(self, tmp_path, damage):
        # a flipped mantissa bit still parses: only the entry's bytes tell it from its dataset
        text = MINIMAL.replace("n: 200", "n: 400").replace("methods: [RW]", "methods: [RW, DIR]")
        jobs, _ = expand_jobs(parse_batch_yaml(text))
        cache = tmp_path / "cache"
        run_batch(jobs, parallelism=1, output_dir=tmp_path / "first", cache_dir=cache)
        entries = {p.name: p.read_bytes() for p in cache.glob("*.fpds")}
        summary = json.loads((tmp_path / "first" / jobs[0].job_id / "summary.json").read_text())
        original = cache / f"{summary['stage1']['original_cache_key']}.fpds"
        if damage == "flipped":
            flip_first_feature(original)
        else:
            original.unlink()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_batch(jobs, parallelism=1, output_dir=tmp_path / "second", cache_dir=cache)
        named = [w for w in caught if issubclass(w.category, FairbenchWarning) and original.name in str(w.message)]
        assert len(named) == (damage != "missing"), [str(w.message) for w in caught]
        assert report.exit_code == 0
        assert {p.name: p.read_bytes() for p in cache.glob("*.fpds")} == entries
        first, second = job_files(tmp_path / "first"), job_files(tmp_path / "second")
        assert set(first) == set(second)
        for rel in first:
            assert filecmp.cmp(first[rel], second[rel], shallow=False), rel

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_an_older_cache_is_a_silent_miss_that_leaves_its_files(self, tmp_path, parallelism):
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        fresh = tmp_path / "fresh"
        run_batch(jobs, parallelism=parallelism, output_dir=tmp_path / "first", cache_dir=fresh)
        entries = {p.name: p.read_bytes() for p in fresh.glob("*.fpds")}
        # the same files under the names an earlier version gave them: an original under
        # the sha256 of its dense form, and each record under a key derived from that
        older = {}
        for job in jobs:
            stage1 = json.loads((tmp_path / "first" / job.job_id / "summary.json").read_text())["stage1"]
            key, method, params, seed = (stage1[name] for name in ("original_cache_key", "method", "params", "seed"))
            seed = seed if method in SEEDED_METHODS else None  # RW and DIR records name no seed
            assert cache_module.cache_key(key, method, params, seed) == stage1["processed_cache_key"]
            old = hashlib.sha256(oracle_v2_entry(cache_module.loads(entries[f"{key}.fpds"]))).hexdigest()
            older[f"{old}.fpds"] = entries[f"{key}.fpds"]
            older[f"{old}.metrics.fpds"] = entries[f"{key}.metrics.fpds"]
            older[f"{cache_module.cache_key(old, method, params, seed)}.metrics.fpds"] = \
                entries[f"{stage1['processed_cache_key']}.metrics.fpds"]
        # two originals and their records, and a record per job
        assert len(older) == len(entries) == 4 + len(jobs)
        cache = tmp_path / "cache"
        cache.mkdir()
        for name, blob in older.items():
            (cache / name).write_bytes(blob)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_batch(jobs, parallelism=parallelism, output_dir=tmp_path / "second", cache_dir=cache)
        assert report.exit_code == 0
        assert not [str(w.message) for w in caught if issubclass(w.category, FairbenchWarning)]
        # each original and record is written once under its new key; the old files stay as they were
        assert {p.name: p.read_bytes() for p in cache.glob("*.fpds")} == {**older, **entries}
        first, second = job_files(tmp_path / "first"), job_files(tmp_path / "second")
        assert set(first) == set(second)
        for rel in first:
            assert filecmp.cmp(first[rel], second[rel], shallow=False), rel

    def test_a_job_reads_and_checks_its_original_once(self, tmp_path, monkeypatch):
        jobs, _ = expand_jobs(parse_batch_yaml(MINIMAL.replace("methods: [RW]", "methods: [DIR]")))
        job, cache = jobs[0], tmp_path / "cache"
        prepared = runner._prepare(job.dataset, job.sensitive, cache)
        entry = (cache / f"{prepared.cache_key}.fpds").read_bytes()
        reads, checks = [], []
        read, key = cache_module._read, cache_module.entry_key
        monkeypatch.setattr(cache_module, "_read",
                            lambda target, parse: reads.append(target.name) or read(target, parse))
        monkeypatch.setattr(cache_module, "entry_key", lambda blob: checks.append(blob) or key(blob))
        for run in ("cold", "warm"):
            reads.clear()
            checks.clear()
            result = _alone(runner.execute_job, job, prepared, tmp_path / run, cache)
            assert not isinstance(result, str), result
            stage1 = json.loads((tmp_path / run / job.job_id / "summary.json").read_text())["stage1"]
            # cold, the processed record is absent and is written; warm, it is read instead of the transform
            assert reads == [f"{prepared.cache_key}.fpds", f"{stage1['processed_cache_key']}.metrics.fpds"]
            # one sha256 check, of the original's file bytes
            assert checks == [entry]

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
                assert outcome.error == _alone(runner._prepare, job.dataset, job.sensitive, tmp_path / "alone")
                assert outcome.error.startswith("FileNotFoundError: ")
                assert "absent.csv" in outcome.error
            else:
                assert outcome.status == "ok", (job.job_id, outcome.error)

    @pytest.mark.parametrize("document, error", [
        ("name: [unclosed\n", r"invalid YAML: expected ',' or '\]', but got '<stream end>' at line 2, column 1 "
                               r"\(while parsing a flow sequence at line 1, column 7\)"),
        ("- name: toy\n", "schema document must be a mapping"),
        ("name: toy\nlabel: {column: income, favorable: high}\ndefault_sensitive: gender\n"
         "sensitive_options: {sex: {column: sex, privileged: [M]}}\nfeatures: {numeric: [x]}\n",
         "sensitive attribute 'gender' not declared"),
        ("name: toy\nlabel: {column: income, favorable: high}\nsensitive_options: [sex, age]\n"
         "features: {numeric: [x]}\n", "sensitive_options must be a mapping, got list"),
    ], ids=["invalid-yaml", "list-document", "undeclared-default", "list-valued-options"])
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
        assert outcome.error == error_text(raised.value)
        assert "\n" not in outcome.error

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

    def test_dead_preparing_worker_reruns_the_rest_in_one_parallel_pool(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool(runner.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX.replace("seeds: [3]", "seeds: [3, 4]")))
        assert len(jobs) == 8
        monkeypatch.setattr(runner, "prepare_original", _exit_forked_preparing_synth_b)
        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
        report = run_batch(jobs, parallelism=2, output_dir=tmp_path / "out", cache_dir=tmp_path / "cache")
        assert report.exit_code == 0, [o.error for o in report.failures]
        # the fork pool, then one two-worker spawn pool for the preparations it
        # failed and for every job; no task runs alone
        assert sizes == [2, 2]

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
                assert outcome.wall_time_s == 0.0
            else:
                # jobs the broken pool failed run again in a pool of their own
                assert outcome.status == "ok", (job.job_id, outcome.error)
        doc = json.loads((tmp_path / "out" / "batch_report.json").read_text())
        assert [j["status"] for j in doc["jobs"]] == [o.status for o in report.outcomes]


class TestOriginalArm:
    """A batch runs each original arm once, in a task of its own, for every job that shares it."""

    TWO_METHODS = MINIMAL.replace("methods: [RW]", "methods: [RW, DIR]")

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_a_failed_original_arm_is_recorded_by_each_of_its_jobs(self, tmp_path, monkeypatch, parallelism):
        jobs, _ = expand_jobs(parse_batch_yaml(self.TWO_METHODS))
        cache = tmp_path / "cache"
        # forked pool workers inherit the patch
        monkeypatch.setattr(stage2, "_run_arm", _original_arm_down)
        report = run_batch(jobs, parallelism=parallelism, output_dir=tmp_path / "out", cache_dir=cache)
        assert report.exit_code == 0, [o.error for o in report.failures]
        prepared = runner._prepare(jobs[0].dataset, jobs[0].sensitive, cache)
        for job in jobs:
            job_dir = tmp_path / "out" / job.job_id
            summary = json.loads((job_dir / "summary.json").read_text())
            assert summary["arm_errors"] == {"original": "RuntimeError: original arm down"}
            assert list(summary["arms"]) == ["processed"]
            assert sorted(p.name for p in job_dir.iterdir()) == [
                "stage1.csv", "summary.json", "sweep_processed.svg",
                "sweep_processed_test.csv", "sweep_processed_validation.csv"]
            # the job run alone runs its original arm itself, and records the same error
            result = _alone(runner.execute_job, job, prepared, tmp_path / "alone", cache)
            assert not isinstance(result, str), result
            alone = json.loads((tmp_path / "alone" / job.job_id / "summary.json").read_text())
            assert alone["arm_errors"] == summary["arm_errors"]

    def test_a_job_whose_arms_both_fail_fails_as_it_does_alone(self, tmp_path, monkeypatch):
        jobs, _ = expand_jobs(parse_batch_yaml(self.TWO_METHODS))
        cache = tmp_path / "cache"
        monkeypatch.setattr(stage2, "_run_arm", _every_arm_down)
        report = run_batch(jobs, parallelism=1, output_dir=tmp_path / "out", cache_dir=cache)
        prepared = runner._prepare(jobs[0].dataset, jobs[0].sensitive, cache)
        for job, outcome in zip(jobs, report.outcomes):
            assert outcome.status == "failed"
            assert "both arms failed" in outcome.error
            assert outcome.error == _alone(runner.execute_job, job, prepared, tmp_path / "alone", cache)

    def test_an_original_arm_whose_every_worker_dies_fails_only_that_arm(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_original_arm", _exit_running_synth_b_original_arm)
        jobs, _ = expand_jobs(parse_batch_yaml(MATRIX))
        report = run_batch(jobs, parallelism=2, output_dir=tmp_path / "out", cache_dir=tmp_path / "cache")
        assert report.exit_code == 0, [o.error for o in report.failures]
        for job in jobs:
            summary = json.loads((tmp_path / "out" / job.job_id / "summary.json").read_text())
            if job.dataset.name == "synth_b":
                assert list(summary["arms"]) == ["processed"]
                assert "BrokenProcessPool" in summary["arm_errors"]["original"]
            else:
                assert list(summary["arms"]) == ["original", "processed"]
                assert summary["arm_errors"] == {}


class TestFailedTask:
    """A task that warns and then raises has its warnings relayed, its error text recorded and its time measured."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("task, step", [
        ("preparation", "prepare_original"), ("original arm", "split_original"), ("job", "run_bench_stage"),
    ])
    def test_its_warning_is_relayed(self, tmp_path, monkeypatch, task, step, parallelism):
        # forked pool workers inherit the patch and this process's warning filters
        monkeypatch.setattr(runner, step, _warn_then_raise)
        jobs, _ = expand_jobs(parse_batch_yaml(TestOriginalArm.TWO_METHODS))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_batch(jobs, parallelism=parallelism, output_dir=tmp_path / "out",
                               cache_dir=tmp_path / "cache")
        # one preparation and one original arm for the two jobs
        relayed = [w for w in caught if str(w.message) == "a task warned before it failed"]
        assert len(relayed) == (2 if task == "job" else 1)
        assert all(issubclass(w.category, FairbenchWarning) for w in relayed)
        doc = json.loads((tmp_path / "out" / "batch_report.json").read_text())
        assert set(doc) == {"schema_version", "output_dir", "skipped_expansions", "jobs"}
        assert [entry["error"] for entry in doc["jobs"]] == [o.error for o in report.outcomes]
        for job, entry in zip(jobs, doc["jobs"]):
            assert set(entry) == {"job_id", "status", "error", "wall_time_s", "artifacts"}
            if task == "original arm":
                assert entry["status"] == "ok" and entry["wall_time_s"] > 0 and len(entry["artifacts"]) == 5
                summary = json.loads((tmp_path / "out" / job.job_id / "summary.json").read_text())
                assert summary["arm_errors"] == {"original": "RuntimeError: task down"}
            else:
                assert (entry["status"], entry["error"], entry["artifacts"]) == \
                    ("failed", "RuntimeError: task down", [])
                # a job that ran is timed; one whose preparation failed did not run
                assert (entry["wall_time_s"] > 0) == (task == "job")


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


@pytest.mark.parametrize("exc, text", [
    (FitError("boom"), "FitError: boom"),
    (FitError(), "FitError"),
    (AssertionError(), "AssertionError"),
])
def test_error_text_is_the_type_then_any_message(exc, text):
    assert error_text(exc) == text
