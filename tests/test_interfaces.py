"""Smaller contract surfaces: the model registry, public exports."""

import importlib
import re

import numpy as np
import pytest

from fairbench.dataset import make_synthetic
from fairbench.errors import SchemaError
from fairbench.model import LogRegConfig, fit_model, model_names, register_model
from fairbench.preproc import DirConfig, OppConfig, fit_method
from fairbench.util import config_from


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
        assert config_from(DirConfig, {"repair_level": 1, "grid_size": 50, "columns": ["x0"]}, "DIR") == \
            DirConfig(repair_level=1.0, grid_size=50, columns=("x0",))
        assert config_from(OppConfig, {"epsilon": 1, "bins": 3, "columns": None}, "OPP") == \
            OppConfig(epsilon=1.0, bins=3)
        assert config_from(LogRegConfig, {"l2": 0, "standardize": False}, "logreg") == \
            LogRegConfig(l2=0.0, standardize=False)


@pytest.mark.parametrize("package", [
    "fairbench", "fairbench.batch", "fairbench.dataset", "fairbench.metrics",
    "fairbench.model", "fairbench.pipeline", "fairbench.preproc", "fairbench.report",
])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
