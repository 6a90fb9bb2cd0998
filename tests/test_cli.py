"""The three CLI surfaces, exercised end to end on synthetic and file data."""

import csv
import json

import pytest

from fairbench.batch import expand_jobs, parse_batch_yaml, run_batch
from fairbench.cli import main
from fairbench.dataset import SplitSpec
from fairbench.pipeline import StageOneReport, run_bench_stage

GERMAN_MINI = """checking_status,duration,credit_history,purpose,credit_amount,savings_status,employment,installment_commitment,personal_status,other_parties,residence_since,property_magnitude,age,other_payment_plans,housing,existing_credits,job,num_dependents,own_telephone,foreign_worker,credit_risk
A11,6,A34,A43,1169,A65,A75,4,A93,A101,4,A121,67,A143,A152,2,A173,1,A192,A201,1
A12,48,A32,A43,5951,A61,A73,2,A92,A101,2,A121,22,A143,A152,1,A173,1,A191,A201,2
A14,12,A34,A46,2096,A61,A74,2,A93,A101,3,A121,49,A143,A152,1,A172,2,A191,A201,1
A11,42,A32,A42,7882,A61,A74,2,A93,A103,4,A122,45,A143,A153,1,A173,2,A191,A201,1
A11,24,A33,A40,4870,A61,A73,3,A93,A101,4,A124,53,A143,A153,2,A173,2,A191,A201,2
A14,36,A32,A46,9055,A65,A73,2,A93,A101,4,A124,35,A143,A151,1,A172,2,A192,A201,1
A14,24,A32,A42,2835,A63,A75,3,A93,A101,4,A122,53,A143,A152,1,A173,1,A191,A201,1
A12,36,A32,A41,6948,A61,A73,2,A93,A101,2,A123,35,A143,A151,1,A174,1,A192,A201,1
A14,12,A32,A43,3059,A64,A74,2,A91,A101,4,A121,61,A143,A152,1,A172,1,A191,A201,1
A12,30,A34,A40,5234,A61,A71,4,A94,A101,2,A123,28,A143,A152,2,A174,1,A191,A201,2
A12,12,A32,A40,1295,A61,A72,3,A92,A101,1,A123,25,A143,A151,1,A173,1,A191,A201,2
A11,48,A32,A49,4308,A61,A72,3,A92,A101,4,A122,24,A143,A151,1,A173,1,A191,A201,2
A12,12,A32,A43,1567,A61,A73,1,A92,A101,1,A123,22,A143,A152,1,A173,1,A192,A201,1
A11,24,A34,A40,1199,A61,A75,4,A93,A101,4,A123,60,A143,A152,2,A172,1,A191,A201,2
A11,15,A32,A40,1403,A61,A73,2,A92,A101,4,A123,28,A143,A151,1,A173,1,A191,A201,1
A11,24,A32,A43,1282,A62,A73,4,A92,A101,2,A123,32,A143,A152,1,A172,1,A191,A201,2
A14,24,A34,A43,2424,A65,A75,4,A93,A101,4,A122,53,A143,A152,2,A173,1,A191,A201,1
A11,30,A30,A49,8072,A65,A72,2,A93,A101,3,A123,25,A141,A152,3,A173,1,A191,A201,1
A12,24,A32,A41,12579,A61,A75,4,A92,A101,2,A124,44,A143,A153,1,A174,1,A192,A201,2
A14,24,A32,A43,3430,A63,A75,3,A93,A101,2,A122,31,A143,A152,1,A173,2,A192,A201,1
"""


def test_prep_then_bench_on_synthetic(tmp_path, capsys):
    out = tmp_path / "out"
    cache = tmp_path / "cache"
    code = main([
        "prep", "--dataset", "synthetic:n=400,disparity=0.4,seed=5",
        "--method", "RW", "--seed", "3",
        "--out", str(out), "--cache-dir", str(cache),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "stage-1 report" in printed
    report_path = out / "stage1_synthetic:n=400,disparity=0.4,seed=5_RW_3.json"
    assert report_path.is_file()
    doc = json.loads(report_path.read_text())
    assert doc["processed_metrics"]["disparate_impact"] == pytest.approx(1.0, abs=1e-9)
    # the commas in the name once gave each data row a cell more than the header
    with open(report_path.with_suffix(".csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [9, 9, 9]
    assert rows[1][0] == "synthetic:n=400,disparity=0.4,seed=5"

    code = main([
        "bench", "--from", str(report_path), "--model", "logreg",
        "--select-metric", "Theil", "--out", str(out), "--cache-dir", str(cache),
    ])
    assert code == 0
    for name in ("sweep_original_validation.csv", "sweep_original_test.csv",
                 "sweep_processed_validation.csv", "sweep_processed_test.csv",
                 "sweep_original.svg", "sweep_processed.svg", "summary.json"):
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["arms"]["original"]["n_thresholds"]["test"] == 99


@pytest.mark.parametrize("synthetic, seed", [
    ({"n": 300, "disparity": 0.3, "seed": 2}, 0),
    # no data seed: data seed 0 in the batch and in `prep`, whatever the job's seed
    ({"n": 300, "disparity": 0.3}, 3),
], ids=["data-seed-2", "no-data-seed"])
def test_bench_writes_the_artifact_set_of_a_batch_job(tmp_path, synthetic, seed):
    dataset = "synthetic:" + ",".join(f"{key}={value}" for key, value in synthetic.items())
    cache = tmp_path / "cache"
    assert main([
        "prep", "--dataset", dataset, "--method", "DIR", "--seed", str(seed),
        "--out", str(tmp_path / "prep"), "--cache-dir", str(cache),
    ]) == 0
    report_path, = (tmp_path / "prep").glob("*.json")
    assert main([
        "bench", "--from", str(report_path), "--out", str(tmp_path / "bench"),
        "--cache-dir", str(cache),
    ]) == 0

    jobs, _ = expand_jobs(parse_batch_yaml(json.dumps({
        "datasets": [{"name": dataset, "synthetic": synthetic}],
        "methods": ["DIR"], "models": ["logreg"], "seeds": [seed],
    })))
    batch = run_batch(jobs, output_dir=tmp_path / "batch", cache_dir=cache)
    job_dir = tmp_path / "batch" / jobs[0].job_id
    assert batch.exit_code == 0

    cli_files = sorted(p.name for p in (tmp_path / "bench").iterdir())
    assert cli_files == sorted(p.name for p in job_dir.iterdir())
    assert "stage1.csv" in cli_files
    for name in set(cli_files) - {"summary.json"}:
        assert (tmp_path / "bench" / name).read_bytes() == (job_dir / name).read_bytes(), name
    cli_summary = json.loads((tmp_path / "bench" / "summary.json").read_text())
    job_summary = json.loads((job_dir / "summary.json").read_text())
    assert cli_summary == {k: v for k, v in job_summary.items() if k not in ("job", "job_id")}


def test_bench_split_seed_picks_the_split(tmp_path):
    cache = tmp_path / "cache"
    assert main([
        "prep", "--dataset", "synthetic:n=300,disparity=0.3,seed=2", "--method", "RW", "--seed", "3",
        "--out", str(tmp_path / "prep"), "--cache-dir", str(cache),
    ]) == 0
    report_path, = (tmp_path / "prep").glob("*.json")
    stage1 = StageOneReport.from_dict(json.loads(report_path.read_text()))
    expected = {seed: run_bench_stage(stage1, split_spec=SplitSpec(seed=seed), cache_dir=cache).original.split_hash
                for seed in (3, 5)}
    assert expected[3] != expected[5]

    def split_hashes(out, *options):
        assert main(["bench", "--from", str(report_path), "--out", str(tmp_path / out),
                     "--cache-dir", str(cache), *options]) == 0
        arms = json.loads((tmp_path / out / "summary.json").read_text())["arms"]
        return {arm["split_hash"] for arm in arms.values()}

    assert split_hashes("seed5", "--split-seed", "5") == {expected[5]}
    # without the option the split follows the stage-1 report's seed
    assert split_hashes("default") == {expected[3]}


def test_prep_on_csv_with_schema(tmp_path, capsys):
    from fairbench.dataset.recipes import schema_path

    csv_path = tmp_path / "german.csv"
    csv_path.write_text(GERMAN_MINI, encoding="utf-8")
    code = main([
        "prep", "--dataset", "german_mini",
        "--schema", str(schema_path("german")), "--csv", str(csv_path),
        "--sensitive", "sex", "--method", "DIR", "--param", "repair_level=1.0",
        "--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache"),
    ])
    assert code == 0
    assert "processed" in capsys.readouterr().out


def test_a_dataset_named_like_synthetic_reads_its_csv(tmp_path):
    # `synthetic_credit` once ran a default synthetic dataset and ignored --csv and --schema
    from fairbench.dataset.recipes import schema_path

    csv_path = tmp_path / "german.csv"
    csv_path.write_text(GERMAN_MINI, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["prep", "--dataset", "synthetic_credit", "--schema", str(schema_path("german")),
                 "--csv", str(csv_path), "--method", "RW", "--out", str(out), "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    report = json.loads((out / "stage1_synthetic_credit_RW_0.json").read_text(encoding="utf-8"))
    metrics = report["original_metrics"]
    assert metrics["num_positives"] + metrics["num_negatives"] == len(GERMAN_MINI.splitlines()) - 1


def test_prep_refuses_a_dataset_name_with_a_path_separator_before_any_work(tmp_path, capsys):
    # the name is part of the report's file name; it was once refused only after ingest, caching and measuring
    from fairbench.dataset.recipes import schema_path

    csv_path = tmp_path / "german.csv"
    csv_path.write_text(GERMAN_MINI, encoding="utf-8")
    cache = tmp_path / "cache"
    cache.mkdir()
    capsys.readouterr()
    code = main(["prep", "--dataset", "a/b", "--schema", str(schema_path("german")), "--csv", str(csv_path),
                 "--method", "RW", "--out", str(tmp_path / "out"), "--cache-dir", str(cache)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --dataset names the report file, so it cannot hold a path separator: 'a/b'\n", err
    assert not any(cache.iterdir())


@pytest.mark.parametrize("extra, message", [
    (["--csv", "x.csv"], "--dataset: csv and schema do not apply to a synthetic dataset"),
    (["--schema", "s.yaml"], "--dataset: csv and schema do not apply to a synthetic dataset"),
    (["--sensitive", "race"], "a synthetic --dataset has the one sensitive attribute 'group', got --sensitive 'race'"),
])
@pytest.mark.parametrize("dataset", ["synthetic", "synthetic:n=100"])
def test_prep_refuses_a_file_with_a_synthetic_dataset(tmp_path, capsys, dataset, extra, message):
    code = main(["prep", "--dataset", dataset, *extra, "--method", "RW",
                 "--out", str(tmp_path), "--cache-dir", str(tmp_path)])
    assert code == 2
    assert f"error: {message}\n" == capsys.readouterr().err


def test_prep_accepts_group_as_a_synthetic_sensitive_attribute(tmp_path):
    assert main(["prep", "--dataset", "synthetic:n=100", "--sensitive", "group", "--method", "RW",
                 "--out", str(tmp_path), "--cache-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("case, message", [
    ("no_schema", "--dataset: need 'csv' and 'schema'"),
    ("missing_csv", "dataset file not found: "),
    ("missing_schema", "No such file or directory: "),
    ("missing_report", "No such file or directory: "),
    ("missing_config", "No such file or directory: "),
])
def test_an_input_file_that_is_missing_is_an_error_line_not_a_traceback(tmp_path, capsys, case, message):
    from fairbench.dataset.recipes import schema_path

    csv_path, absent = tmp_path / "german.csv", str(tmp_path / "absent")
    csv_path.write_text(GERMAN_MINI, encoding="utf-8")
    prep = ["prep", "--dataset", "german", "--method", "RW", "--out", str(tmp_path), "--cache-dir", str(tmp_path)]
    argv = {
        "no_schema": prep + ["--csv", str(csv_path)],
        "missing_csv": prep + ["--csv", absent, "--schema", str(schema_path("german"))],
        "missing_schema": prep + ["--csv", str(csv_path), "--schema", absent],
        "missing_report": ["bench", "--from", absent, "--out", str(tmp_path), "--cache-dir", str(tmp_path)],
        "missing_config": ["batch", "--config", absent, "--out", str(tmp_path)],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
    assert case == "no_schema" or "absent" in err


def test_batch_cli(tmp_path, capsys):
    config = tmp_path / "batch.yaml"
    config.write_text(
        """
datasets:
  - name: synth
    synthetic: {n: 200, disparity: 0.3, seed: 1}
methods: [RW, DIR]
models: [logreg]
seeds: [0]
output: UNUSED
""",
        encoding="utf-8",
    )
    out = tmp_path / "batch_out"
    code = main(["batch", "--config", str(config), "--parallelism", "1", "--out", str(out)])
    assert code == 0
    assert "2/2 jobs ok" in capsys.readouterr().out
    assert (out / "batch_report.json").is_file()


@pytest.mark.parametrize("value", ["-4", "0", "two"])
def test_batch_cli_rejects_bad_parallelism(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["batch", "--config", str(tmp_path / "unread.yaml"), "--parallelism", value])
    assert exc.value.code == 2
    assert "--parallelism" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["prep", "--dataset", "synthetic", "--method", "LFR", "--seed", "-1"], "--seed"),
    (["bench", "--from", "unread.json", "--split-seed", "-1"], "--split-seed"),
])
def test_a_negative_seed_is_refused_by_its_option(tmp_path, capsys, argv, option):
    # numpy's generators take no negative seed; it once failed deep in a fit as a traceback
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")])
    assert exc.value.code == 2
    assert f"argument {option}: seed must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [
    ("    synthetic: {n: abc}", "datasets[0].synthetic.n"),
    ("    synthetic: {n: 200}\nsplit: {train: x}", "split.train"),
    ("    synthetic: {n: 200}\nsplit: 0.7", "split must be a mapping"),
    ("    synthetic: {n: 200}\nsensitive_attributes: {synht: [group]}", "sensitive_attributes.synht"),
])
def test_batch_cli_rejects_bad_numbers_in_config(tmp_path, capsys, line, key):
    config = tmp_path / "batch.yaml"
    config.write_text(f"datasets:\n  - name: synth\n{line}\nmethods: [RW]\nmodels: [logreg]\nseeds: [0]\n",
                      encoding="utf-8")
    assert main(["batch", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("lists, message", [
    ("methods: [SMOTE, RW]\nmodels: [logreg]", "methods[0].name: unknown method 'SMOTE'"),
    ("methods: [RW]\nmodels: [logreg, svm]", "models[1].name: unknown model 'svm'"),
])
def test_batch_cli_rejects_an_unknown_name_before_any_job_runs(tmp_path, capsys, lists, message):
    config = tmp_path / "batch.yaml"
    config.write_text(f"datasets:\n  - name: synth\n    synthetic: {{n: 200}}\n{lists}\nseeds: [0]\n",
                      encoding="utf-8")
    assert main(["batch", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_batch_cli_failure_exit_code(tmp_path, capsys):
    config = tmp_path / "batch.yaml"
    config.write_text(
        """
datasets:
  - name: broken
    csv: /nonexistent.csv
    schema: /nonexistent.yaml
methods: [RW]
models: [logreg]
seeds: [0]
""",
        encoding="utf-8",
    )
    code = main(["batch", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("n=abc", "--dataset.synthetic.n must be an integer"),
    ("n=1.5", "--dataset.synthetic.n must be an integer"),
    ("n=[1]", "--dataset.synthetic.n must be an integer"),
    ("disparity=x", "--dataset.synthetic.disparity must be a number"),
    ("size=5", "--dataset.synthetic: unknown keys ['size']"),
    # the spec, not a --param, is malformed
    ("n=100,", "--dataset expects key=value, got ''"),
    ("n", "--dataset expects key=value, got 'n'"),
])
def test_prep_rejects_a_bad_synthetic_spec_as_a_batch_config_would(tmp_path, capsys, spec, message):
    code = main(["prep", "--dataset", f"synthetic:{spec}", "--method", "RW",
                 "--out", str(tmp_path), "--cache-dir", str(tmp_path)])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("param, message", [
    ("repair_lvl=1", "--param: unknown keys ['repair_lvl'] (accepts ['columns', 'grid_size', 'repair_level'])"),
    ("repair_level=2", "--param.repair_level must be in [0,1], got 2.0"),
])
def test_prep_reads_its_params_before_any_work(tmp_path, capsys, param, message):
    # a bad parameter was once refused only after the original was cached and measured
    out, cache = tmp_path / "out", tmp_path / "cache"
    code = main(["prep", "--dataset", "synthetic:n=100", "--method", "DIR", "--param", param,
                 "--out", str(out), "--cache-dir", str(cache)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not cache.exists()


def _stage1_report(tmp_path, method):
    """The path of the stage-1 report `prep` writes for synthetic n=100 under `method`, cached in tmp_path/cache."""
    assert main(["prep", "--dataset", "synthetic:n=100", "--method", method, "--out", str(tmp_path / "prep"),
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    report_path, = (tmp_path / "prep").glob("*.json")
    return report_path


@pytest.mark.parametrize("change, message", [
    ({"params": {"repair_lvl": 1}},
     "stage-1 report.params: unknown keys ['repair_lvl'] (accepts ['columns', 'grid_size', 'repair_level'])"),
    ({"params": {"repair_level": 2}}, "stage-1 report.params.repair_level must be in [0,1], got 2.0"),
    ({"method": "XYZ"}, "unknown method 'XYZ'; expected one of ['RW', 'LFR', 'DIR', 'OPP']"),
])
def test_bench_reads_the_reports_method_and_params_before_any_work(tmp_path, capsys, change, message):
    # these were once refused by the processed arm, after the original arm was fitted and its files written
    report = tmp_path / "report.json"
    report.write_text(json.dumps(dict(json.loads(_stage1_report(tmp_path, "DIR").read_text()), **change)))
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["bench", "--from", str(report), "--out", str(out), "--cache-dir", str(tmp_path / "cache")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("options, message", [
    (["--param", "max_iter=-1"], "--param.max_iter must be non-negative, got -1"),
    (["--param", "penalty=l1"], "--param: unknown keys ['penalty'] (accepts ['l2', 'max_iter', 'standardize', 'tol'])"),
    (["--model", "forest"], "unknown model 'forest'; registered: ['logreg']"),
])
def test_bench_reads_its_model_and_params_before_any_work(tmp_path, capsys, options, message):
    # both arms once fitted to the same refusal, which ended the command as "both arms failed"
    report = _stage1_report(tmp_path, "RW")
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["bench", "--from", str(report), "--out", str(out), "--cache-dir", str(tmp_path / "cache"),
                 *options]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_batch_reads_its_model_params_before_any_work(tmp_path, capsys):
    # this once prepared and cached the dataset, then failed both arms of every job, and exited 1
    config = tmp_path / "batch.yaml"
    config.write_text("datasets: [{name: s, synthetic: {n: 100}}]\nmethods: [RW]\n"
                      "models: [{name: logreg, params: {max_iter: -1}}]\nseeds: [0]\n", encoding="utf-8")
    out, cache = tmp_path / "out", tmp_path / "cache"
    assert main(["batch", "--config", str(config), "--out", str(out), "--cache-dir", str(cache)]) == 2
    assert capsys.readouterr().err == "error: models[0].params.max_iter must be non-negative, got -1\n"
    assert not out.exists() and not cache.exists()


def test_error_reported_not_raised(tmp_path, capsys):
    code = main(["prep", "--dataset", "german", "--method", "RW",
                 "--out", str(tmp_path), "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_prep_rejects_a_mistyped_schema_block(tmp_path, capsys):
    schema = tmp_path / "bad.yaml"
    schema.write_text("name: toy\nlabel: {column: income, favorable: high}\n"
                      "sensitive_options: [sex, age]\nfeatures: {numeric: [age]}\n", encoding="utf-8")
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("age,sex,income\n30,M,high\n40,F,low\n", encoding="utf-8")
    code = main(["prep", "--dataset", "toy", "--schema", str(schema), "--csv", str(csv_path),
                 "--method", "RW", "--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")])
    assert code == 2
    assert f"error: {schema}: sensitive_options must be a mapping, got list" in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    "report_not_json", "report_not_utf8", "report_list", "report_without_dataset", "report_metrics_fields",
    "report_seed_text", "report_seed_fraction", "report_seed_negative", "report_seed_negative_split_seed",
    "report_dataset_null", "report_method_number", "report_consistency_range", "report_count_text",
    "report_unknown_key", "report_params_list",
    "param_not_yaml", "synthetic_seed_negative", "config_not_utf8", "config_not_yaml", "config_seed_negative",
    "config_synthetic_small", "config_method_param"])
def test_a_malformed_input_is_an_error_line_not_a_traceback(tmp_path, capsys, case):
    common = ["--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
    assert main(["prep", "--dataset", "synthetic:n=100", "--method", "RW", *common]) == 0
    doc = json.loads(next((tmp_path / "out").glob("stage1_*.json")).read_text(encoding="utf-8"))
    path = tmp_path / "input"
    bench = ["bench", "--from", str(path), *common]
    batch = ["batch", "--config", str(path), "--out", str(tmp_path / "batch")]

    def report(**changes):
        return json.dumps(dict(doc, **changes)).encode()

    def metrics(**changes):
        return report(original_metrics=dict(doc["original_metrics"], **changes))

    blob, argv, message = {
        "report_not_json": (b"stage 1", bench, "input: not a JSON stage-1 report: Expecting value"),
        "report_not_utf8": (b"\xff\xfe{}", bench, "input: not a JSON stage-1 report: 'utf-8' codec can't decode"),
        "report_list": (b"[1]", bench, "stage-1 report must be a mapping, got list"),
        "report_without_dataset": (json.dumps({k: v for k, v in doc.items() if k != "dataset"}).encode(), bench,
                                   "stage-1 report lacks ['dataset']"),
        "report_metrics_fields": (metrics(extra=1), bench,
                                  "stage-1 report.original_metrics: unknown keys ['extra'] (accepts ['base_rate', "),
        "report_seed_text": (report(seed="3"), bench, "stage-1 report.seed must be an integer, got '3'"),
        "report_seed_fraction": (report(seed=1.5), bench, "stage-1 report.seed must be an integer, got 1.5"),
        "report_seed_negative": (report(seed=-1), bench, "stage-1 report.seed must be non-negative, got -1"),
        "report_seed_negative_split_seed": (report(seed=-1), [*bench, "--split-seed", "0"],
                                            "stage-1 report.seed must be non-negative, got -1"),
        "report_dataset_null": (report(dataset=None), bench, "stage-1 report.dataset must be a string, got None"),
        "report_method_number": (report(method=5), bench, "stage-1 report.method must be a string, got int"),
        "report_consistency_range": (metrics(consistency=2.0), bench,
                                     "stage-1 report.original_metrics.consistency must be in [0,1], got 2.0"),
        "report_count_text": (metrics(num_positives="12"), bench,
                              "stage-1 report.original_metrics.num_positives must be an integer, got '12'"),
        "report_unknown_key": (report(extra=1), bench, "stage-1 report: unknown keys ['extra'] (accepts ['dataset', "),
        "report_params_list": (report(params=[1]), bench, "stage-1 report.params must be a mapping, got list"),
        "synthetic_seed_negative": (b"", ["prep", "--dataset", "synthetic:seed=-3", "--method", "RW", *common],
                                    "--dataset.synthetic.seed must be non-negative, got -3"),
        "config_seed_negative": (b"datasets: [{name: s, synthetic: {n: 100}}]\nmethods: [RW]\nmodels: [logreg]\n"
                                 b"seeds: [-1]\n", batch, "seeds[0] must be non-negative, got -1"),
        # these two once ran every job to a failure, and the batch exited 1
        "config_synthetic_small": (b"datasets: [{name: s, synthetic: {n: 5}}]\nmethods: [RW]\nmodels: [logreg]\n"
                                   b"seeds: [0]\n", batch, "datasets[0].synthetic.n must be >= 8, got 5"),
        "config_method_param": (b"datasets: [{name: s, synthetic: {n: 100}}]\nmethods: [{name: DIR, params: "
                                b"{repair_lvl: 1}}]\nmodels: [logreg]\nseeds: [0]\n", batch,
                                "methods[0].params: unknown keys ['repair_lvl']"),
        "param_not_yaml": (b"", ["prep", "--dataset", "synthetic", "--method", "RW", "--param", "a=[", *common],
                           "--param 'a=[': invalid YAML: expected the node content, but found '<stream end>' "
                           "at line 1, column 2"),
        "config_not_utf8": (b"\xff\xfe", batch, "input: not UTF-8 text: 'utf-8' codec can't decode"),
        "config_not_yaml": (b"datasets: [unclosed", batch,
                            "batch config: invalid YAML: expected ',' or ']', but got '<stream end>' "
                            "at line 1, column 20"),
    }[case]
    path.write_bytes(blob)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
