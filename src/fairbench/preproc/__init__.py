"""The four bias-mitigation transforms and a small dispatch layer.

`apply_method` is the stage-1 entry (transform a full dataset); `fit_method`
is the stage-2 entry (fit on the training split, expose a feature transform
for evaluation splits that keeps the true labels).
"""

from dataclasses import dataclass

from ..errors import SchemaError
from ..dataset.cache import content_key
from ..dataset.tabular import TabularDataset, apply_standardization, standardize
from ..util import checked_params, config_from, derive_seed
from .lfr import LfrModel, lfr_fit, lfr_gradients, lfr_objective, lfr_transform
from .opp import OppConfig, OppMap, opp_fit, opp_transform
from .repair import DirConfig, dir_repair
from .reweigh import ReweighResult, reweigh

METHOD_NAMES = ("RW", "LFR", "DIR", "OPP")


def _lfr_params(params):
    return checked_params(
        params,
        {"prototypes": 10, "a_z": 50.0, "a_x": 0.01, "a_y": 1.0, "max_iter": 5000, "tol": 1e-6},
        "LFR",
    )


@dataclass(frozen=True)
class FittedMethod:
    """A transform fitted on one training split."""

    name: str
    train: TabularDataset
    _eval_transform: object

    def transform_eval(self, ds: TabularDataset) -> TabularDataset:
        """Transform an evaluation split's features; true labels are kept."""
        return self._eval_transform(ds)


def fit_method(name: str, train: TabularDataset, params=None, seed: int = 0) -> FittedMethod:
    if name == "RW":
        checked_params(params, {}, "RW")
        out = reweigh(train).dataset
        return FittedMethod(name, out, lambda ds: ds)

    if name == "DIR":
        cfg = config_from(DirConfig, params, "DIR")
        # the repair has no train/apply separation: each split is repaired
        # against its own group distributions
        return FittedMethod(name, dir_repair(train, cfg), lambda ds: dir_repair(ds, cfg))

    if name == "LFR":
        p = _lfr_params(params)
        std_train, means, scales = standardize(train)
        model = lfr_fit(
            std_train,
            n_prototypes=p["prototypes"], a_z=p["a_z"], a_x=p["a_x"], a_y=p["a_y"],
            seed=seed, max_iter=p["max_iter"], tol=p["tol"],
        )

        def eval_lfr(ds, _model=model, _mu=means, _sd=scales):
            out = lfr_transform(_model, apply_standardization(ds, _mu, _sd))
            return out.replace(labels=ds.labels)

        return FittedMethod(name, lfr_transform(model, std_train), eval_lfr)

    if name == "OPP":
        mapping = opp_fit(train, config_from(OppConfig, params, "OPP"))

        def eval_opp(ds, _m=mapping, _seed=seed):
            # seeded by content: equal-sized validation and test splits must not share draws
            out = opp_transform(_m, ds, seed=derive_seed(_seed, "opp-eval", content_key(ds)))
            return out.replace(labels=ds.labels)

        return FittedMethod(name, opp_transform(mapping, train, seed=seed), eval_opp)

    raise SchemaError(f"unknown method {name!r}; expected one of {METHOD_NAMES}")


def apply_method(name: str, ds: TabularDataset, params=None, seed: int = 0) -> TabularDataset:
    """Stage-1 application: fit on the full dataset and transform it."""
    return fit_method(name, ds, params, seed).train


__all__ = [
    "METHOD_NAMES",
    "DirConfig",
    "FittedMethod",
    "LfrModel",
    "OppConfig",
    "OppMap",
    "ReweighResult",
    "apply_method",
    "dir_repair",
    "fit_method",
    "lfr_fit",
    "lfr_gradients",
    "lfr_objective",
    "lfr_transform",
    "opp_fit",
    "opp_transform",
    "reweigh",
]
