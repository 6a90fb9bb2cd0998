"""Model adapter registry: plug in new classifiers by name without touching the pipeline.

An adapter takes (train dataset, params dict, seed) and returns an object with
a `score(ds) -> array in [0,1]` method.
"""

from ..errors import SchemaError
from ..util import config_from
from .logreg import LogRegConfig, TrainedModel, predict_scores, train_logreg

_REGISTRY = {}


def register_model(name: str, factory):
    """Register an adapter; `factory(train, params, seed) -> scorer`."""
    _REGISTRY[name] = factory


def model_names():
    return sorted(_REGISTRY)


def fit_model(name: str, train, params=None, seed: int = 0):
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise SchemaError(f"unknown model {name!r}; registered: {model_names()}") from None
    return factory(train, dict(params or {}), seed)


class _LogRegScorer:
    def __init__(self, model: TrainedModel):
        self.model = model

    def score(self, ds):
        return predict_scores(self.model, ds)


def _logreg_factory(train, params, seed):
    return _LogRegScorer(train_logreg(train, config_from(LogRegConfig, params, "logreg")))


register_model("logreg", _logreg_factory)
