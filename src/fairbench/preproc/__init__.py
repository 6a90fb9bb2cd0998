"""The four bias-mitigation transforms and a small dispatch layer.

`apply_method` is the stage-1 entry (transform a full dataset); `fit_method`
is the stage-2 entry (fit on the training split, expose a feature transform
for evaluation splits that keeps the true labels).
"""

import hashlib
from dataclasses import dataclass, make_dataclass

from ..errors import SchemaError
from ..dataset.tabular import TabularDataset, apply_standardization, standardize
from ..util import from_mapping
from .lfr import LfrConfig, lfr_fit, lfr_transform
from .opp import OppConfig, opp_fit, opp_transform
from .repair import DirConfig, dir_repair
from .reweigh import reweigh

# each method's parameters are the fields of its config; RW takes none
METHOD_CONFIGS = {"RW": make_dataclass("RwConfig", (), frozen=True), "LFR": LfrConfig, "DIR": DirConfig, "OPP": OppConfig}
METHOD_NAMES = tuple(METHOD_CONFIGS)
SEEDED_METHODS = ("LFR", "OPP")  # the methods that read the seed; RW and DIR ignore it


@dataclass(frozen=True)
class FittedMethod:
    """A transform fitted on one training split."""

    name: str
    train: TabularDataset
    _eval_transform: object

    def transform_eval(self, ds: TabularDataset) -> TabularDataset:
        """Transform an evaluation split; its true labels are kept, whatever the transform makes of them."""
        return self._eval_transform(ds).replace(labels=ds.labels)


def method_params(name: str, params, where):
    """Method `name`'s config read from `params`; an unknown name or a bad value is a FairbenchError,
    naming a value as `<where>.<key>`."""
    if name not in METHOD_CONFIGS:
        raise SchemaError(f"unknown method {name!r}; expected one of {list(METHOD_NAMES)}")
    return from_mapping(METHOD_CONFIGS[name], params, where)


def fit_method(name: str, train: TabularDataset, params=None, seed: int = 0) -> FittedMethod:
    cfg = method_params(name, params, name)
    if name == "RW":
        return FittedMethod(name, reweigh(train).dataset, lambda ds: ds)

    if name == "DIR":
        # the repair has no train/apply separation: each split is repaired
        # against its own group distributions
        return FittedMethod(name, dir_repair(train, cfg), lambda ds: dir_repair(ds, cfg))

    if name == "LFR":
        std_train, means, scales = standardize(train)
        model = lfr_fit(std_train, cfg, seed)
        return FittedMethod(name, lfr_transform(model, std_train),
                            lambda ds: lfr_transform(model, apply_standardization(ds, means, scales)))

    opp_map = opp_fit(train, cfg)

    def eval_opp(ds):
        # seeded by the split's content: equal-sized validation and test splits must not share draws
        h = hashlib.sha256(f"{seed}/opp-eval".encode())
        for values, dtype in ((ds.features, "<f8"), (ds.labels, "<i8"), (ds.protected, "<i8")):
            h.update(values.astype(dtype, copy=False).tobytes())
        return opp_transform(opp_map, ds, seed=int.from_bytes(h.digest()[:8], "big"))

    return FittedMethod(name, opp_transform(opp_map, train, seed=seed), eval_opp)


def apply_method(name: str, ds: TabularDataset, params=None, seed: int = 0) -> TabularDataset:
    """Stage-1 application: fit on the full dataset and transform it."""
    return fit_method(name, ds, params, seed).train


__all__ = [
    "METHOD_NAMES",
    "SEEDED_METHODS",
    "DirConfig",
    "LfrConfig",
    "OppConfig",
    "apply_method",
    "dir_repair",
    "fit_method",
    "lfr_fit",
    "lfr_transform",
    "method_params",
    "opp_fit",
    "opp_transform",
    "reweigh",
]
