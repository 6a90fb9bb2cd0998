"""Each demo script runs to completion from a fresh copy of `demos/`."""

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
