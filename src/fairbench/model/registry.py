"""Model adapter registry: plug in new classifiers by name without touching the pipeline.

An adapter takes (train dataset, params dict, seed) and returns an object with
a `score(ds) -> array in [0,1]` method.
"""

from ..errors import SchemaError
from ..util import from_mapping
from .logreg import LogRegConfig, TrainedModel, predict_scores, train_logreg

_REGISTRY = {}  # name -> (factory, the config its params are checked through, or None)


def register_model(name: str, factory, config=None):
    """Register an adapter; `factory(train, params dict, seed) -> scorer`.

    With `config`, a frozen dataclass that `util.from_mapping` reads, the params are checked through it
    before any work by a batch or `fairbench bench`, and before each fit; without, only by the factory.
    """
    _REGISTRY[name] = (factory, config)


def model_names():
    return sorted(_REGISTRY)


def model_params(name: str, params, where):
    """`params` as a dict, as model `name`'s factory receives them; an unknown name, or a value its
    registered config refuses, is a FairbenchError, naming a value as `<where>.<key>`."""
    try:
        _, config = _REGISTRY[name]
    except KeyError:
        raise SchemaError(f"unknown model {name!r}; registered: {model_names()}") from None
    if config is not None:
        from_mapping(config, params, where)
    return dict(params or {})


def fit_model(name: str, train, params=None, seed: int = 0):
    params = model_params(name, params, name)
    factory, _ = _REGISTRY[name]
    return factory(train, params, seed)


class _LogRegScorer:
    def __init__(self, model: TrainedModel):
        self.model = model

    def score(self, ds):
        return predict_scores(self.model, ds)


def _logreg_factory(train, params, seed):
    return _LogRegScorer(train_logreg(train, from_mapping(LogRegConfig, params, "logreg")))


register_model("logreg", _logreg_factory, LogRegConfig)
