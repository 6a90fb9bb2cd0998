"""Smaller contract surfaces: debug dumps, the model registry, public exports."""

import importlib

import numpy as np
import pytest

from fairbench.dataset import make_synthetic, standardize
from fairbench.errors import SchemaError
from fairbench.model import fit_model, model_names, register_model
from fairbench.preproc import OppConfig, lfr_fit, opp_fit


class TestDebugDumps:
    def test_lfr_dump_versioned_and_parseable(self, tmp_path):
        ds, _, _ = standardize(make_synthetic(seed=0, n=80, disparity=0.2))
        model = lfr_fit(ds, n_prototypes=3, seed=0, max_iter=50)
        path = tmp_path / "lfr.dump"
        model.dump_debug(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fairbench-model-dump v1"
        assert lines[1] == "kind lfr"
        assert sum(1 for line in lines if line.startswith("prototype ")) == 3
        trace_line = next(line for line in lines if line.startswith("trace "))
        values = [float(v) for v in trace_line.split()[1:]]
        assert values == pytest.approx(list(model.objective_trace), rel=1e-9)

    def test_opp_dump_versioned_and_parseable(self, tmp_path):
        ds = make_synthetic(seed=1, n=200, disparity=0.3)
        mapping = opp_fit(ds, OppConfig(epsilon=0.2, distortion_budget=0.4, bins=3, max_iter=50))
        path = tmp_path / "opp.dump"
        mapping.dump_debug(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "fairbench-model-dump v1"
        assert lines[1] == "kind opp"
        row_lines = [line for line in lines if line.startswith("row ")]
        assert len(row_lines) == len(mapping.row_keys)
        first_row = [float(v) for v in row_lines[0].split(") ")[-1].split()]
        assert first_row == pytest.approx(list(mapping.table[0]), rel=1e-12)


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


@pytest.mark.parametrize("package", [
    "fairbench", "fairbench.batch", "fairbench.dataset", "fairbench.metrics",
    "fairbench.model", "fairbench.pipeline", "fairbench.preproc", "fairbench.report",
])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
