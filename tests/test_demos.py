"""Each demo script runs to completion from a fresh copy of `demos/`, and so does README's Quick start."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_zero(script, tmp_path):
    demos = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", demos, ignore=shutil.ignore_patterns("out", "__pycache__"))
    data = tmp_path / "no_data"
    data.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "FAIRBENCH_DATA": str(data)}
    done = subprocess.run(
        [sys.executable, str(demos / script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_the_readme_quick_start_runs_and_prints_what_it_says(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the block caches under ./cache
    exec(compile(block, "README.md", "exec"), {})
    disparate_impact, selected = capsys.readouterr().out.splitlines()
    assert float(disparate_impact) == pytest.approx(1.0, abs=1e-9)  # "# 1.000"
    threshold, parity = map(float, selected.split())
    assert (threshold, parity) == (0.31, pytest.approx(-0.18, abs=1e-9))
