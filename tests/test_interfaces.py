"""Smaller contract surfaces: the model registry, public exports."""

import importlib

import numpy as np
import pytest

from fairbench.dataset import make_synthetic
from fairbench.errors import SchemaError
from fairbench.model import fit_model, model_names, register_model


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
