"""Smaller contract surfaces: the model registry, public exports."""

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairbench
from fairbench.dataset import make_synthetic
from fairbench.errors import SchemaError
from fairbench.model import LogRegConfig, fit_model, model_names, register_model
from fairbench.preproc import DirConfig, OppConfig, fit_method
from fairbench.util import from_mapping


class TestModelRegistry:
    def test_logreg_registered_by_default(self):
        assert "logreg" in model_names()

    def test_unknown_model_rejected(self):
        ds = make_synthetic(seed=0, n=40, disparity=0.1)
        with pytest.raises(SchemaError, match="unknown model"):
            fit_model("gradient_boosting", ds)

    def test_custom_adapter_pluggable(self):
        class ConstantScorer:
            def score(self, ds):
                return np.full(ds.n, 0.5)

        register_model("constant", lambda train, params, seed: ConstantScorer())
        try:
            ds = make_synthetic(seed=0, n=40, disparity=0.1)
            scorer = fit_model("constant", ds, {}, seed=0)
            assert np.array_equal(scorer.score(ds), np.full(40, 0.5))
        finally:
            from fairbench.model.registry import _REGISTRY
            _REGISTRY.pop("constant", None)

    def test_logreg_unknown_param_rejected(self):
        ds = make_synthetic(seed=0, n=40, disparity=0.1)
        with pytest.raises(SchemaError, match="penalty"):
            fit_model("logreg", ds, {"penalty": "l1"})


class TestParameters:
    @pytest.mark.parametrize("fit, name, params, key", [
        (fit_method, "DIR", {"grid_size": 2.7}, "DIR.grid_size"),
        (fit_method, "DIR", {"repair_level": "full"}, "DIR.repair_level"),
        (fit_method, "DIR", {"columns": "x0"}, "DIR.columns"),
        (fit_method, "OPP", {"bins": 2.5}, "OPP.bins"),
        (fit_method, "OPP", {"max_iter": 3.9}, "OPP.max_iter"),
        (fit_method, "LFR", {"prototypes": 2.5}, "LFR.prototypes"),
        (fit_model, "logreg", {"max_iter": 2.5}, "logreg.max_iter"),
        (fit_model, "logreg", {"standardize": "no"}, "logreg.standardize"),
    ])
    def test_value_of_the_wrong_kind_rejected_with_its_name(self, fit, name, params, key):
        ds = make_synthetic(seed=0, n=40, disparity=0.1)
        with pytest.raises(SchemaError, match=re.escape(key)):
            fit(name, ds, params)

    def test_valid_values_build_the_config_they_name(self):
        assert from_mapping(DirConfig, {"repair_level": 1, "grid_size": 50, "columns": ["x0"]}, "DIR") == \
            DirConfig(repair_level=1.0, grid_size=50, columns=("x0",))
        assert from_mapping(OppConfig, {"epsilon": 1, "bins": 3, "columns": None}, "OPP") == \
            OppConfig(epsilon=1.0, bins=3)
        assert from_mapping(LogRegConfig, {"l2": 0, "standardize": False}, "logreg") == \
            LogRegConfig(l2=0.0, standardize=False)


@pytest.mark.parametrize("package", [
    "fairbench", "fairbench.batch", "fairbench.dataset", "fairbench.metrics",
    "fairbench.model", "fairbench.pipeline", "fairbench.preproc", "fairbench.report",
])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"


ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def _from_imports():
    """(importing module, imported module, name) of each `from ... import name` in the Python files
    under src/, tests/, demos/ and bench/, with relative imports resolved."""
    found = set()
    for top in ("src", "tests", "demos", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            parts = path.relative_to(ROOT / "src" if top == "src" else ROOT).with_suffix("").parts
            package = parts[:-1]
            if parts[-1] == "__init__":
                parts = package
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                source = node.module
                if node.level:
                    base = package[:len(package) - node.level + 1]
                    source = ".".join(base + ((node.module,) if node.module else ()))
                found.update((".".join(parts), source, alias.name) for alias in node.names)
    return found


@pytest.mark.parametrize("package", ["batch", "dataset", "metrics", "model", "pipeline", "preproc", "report"])
def test_every_exported_name_is_imported_from_its_package(package):
    """A sub-package exports only names that some other file imports from it."""
    module = f"fairbench.{package}"
    used = {name for importer, source, name in _from_imports() if source == module and importer != module}
    unused = sorted(set(importlib.import_module(module).__all__) - used)
    assert not unused, f"{module}.__all__ names no file imports from {module}: {unused}"


@pytest.mark.parametrize("module", [
    "fairbench.batch", "fairbench.dataset", "fairbench.metrics", "fairbench.model",
    "fairbench.pipeline", "fairbench.preproc", "fairbench.report", "fairbench.cli",
])
def test_each_package_imports_alone_in_a_fresh_interpreter(module):
    """The top-level package imports nothing, so an import cycle between sub-packages shows here."""
    src = str(Path(fairbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_every_module_imports_only_the_stdlib_numpy_and_yaml():
    """fairbench is numpy-only: importing all of it adds no other third-party module, such as scipy,
    which would also lengthen the start of every batch."""
    src = Path(fairbench.__file__).resolve().parents[1]
    modules = sorted(".".join(path.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
                     for path in (src / "fairbench").rglob("*.py"))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"for name in {modules!r}:\n"
        "    __import__(name)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    added = done.stdout.split()
    assert "fairbench.cli" in added and "fairbench.batch.runner" in added
    # multiprocessing registers `__mp_main__`; numpy's Cython extensions add `cython_runtime` and `_cython_<version>`
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "fairbench", "__mp_main__", "cython_runtime"}
    others = [name for name in added
              if name.partition(".")[0] not in allowed and not name.startswith("_cython_")]
    assert not others, others
