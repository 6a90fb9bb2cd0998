"""The three CLI surfaces, exercised end to end on synthetic and file data."""

import json

import pytest

from fairbench.batch import expand_jobs, parse_batch_yaml, run_batch
from fairbench.cli import main

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


def test_bench_writes_the_artifact_set_of_a_batch_job(tmp_path):
    cache = tmp_path / "cache"
    assert main([
        "prep", "--dataset", "synthetic:n=300,disparity=0.3,seed=2", "--method", "DIR",
        "--out", str(tmp_path / "prep"), "--cache-dir", str(cache),
    ]) == 0
    report_path, = (tmp_path / "prep").glob("*.json")
    assert main([
        "bench", "--from", str(report_path), "--out", str(tmp_path / "bench"),
        "--cache-dir", str(cache),
    ]) == 0

    jobs, _ = expand_jobs(parse_batch_yaml("""
datasets:
  - name: synth
    synthetic: {n: 300, disparity: 0.3, seed: 2}
methods: [DIR]
models: [logreg]
seeds: [0]
"""))
    batch = run_batch(jobs, output_dir=tmp_path / "batch", cache_dir=cache)
    job_dir = tmp_path / "batch" / jobs[0].job_id
    assert batch.exit_code == 0

    cli_files = sorted(p.name for p in (tmp_path / "bench").iterdir())
    assert cli_files == sorted(p.name for p in job_dir.iterdir())
    assert "stage1.csv" in cli_files
    cli_summary = json.loads((tmp_path / "bench" / "summary.json").read_text())
    job_summary = json.loads((job_dir / "summary.json").read_text())
    assert set(cli_summary) == set(job_summary) - {"job", "job_id"}


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


@pytest.mark.parametrize("line, key", [
    ("    synthetic: {n: abc}", "datasets[0].synthetic.n"),
    ("    synthetic: {n: 200}\nsplit: {train: x}", "split.train"),
    ("    synthetic: {n: 200}\nsplit: 0.7", "split:"),
    ("    synthetic: {n: 200}\nsensitive_attributes: {synht: [group]}", "sensitive_attributes.synht"),
])
def test_batch_cli_rejects_bad_numbers_in_config(tmp_path, capsys, line, key):
    config = tmp_path / "batch.yaml"
    config.write_text(f"datasets:\n  - name: synth\n{line}\nmethods: [RW]\nmodels: [logreg]\nseeds: [0]\n",
                      encoding="utf-8")
    assert main(["batch", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


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
    ("n=abc", "synthetic.n: must be an integer"),
    ("n=1.5", "synthetic.n: must be an integer"),
    ("n=[1]", "synthetic.n: must be an integer"),
    ("disparity=x", "synthetic.disparity: must be a number"),
    ("size=5", "synthetic: unknown keys ['size']"),
])
def test_prep_rejects_a_bad_synthetic_spec_as_a_batch_config_would(tmp_path, capsys, spec, message):
    code = main(["prep", "--dataset", f"synthetic:{spec}", "--method", "RW",
                 "--out", str(tmp_path), "--cache-dir", str(tmp_path)])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_error_reported_not_raised(tmp_path, capsys):
    code = main(["prep", "--dataset", "german", "--method", "RW",
                 "--out", str(tmp_path), "--cache-dir", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
