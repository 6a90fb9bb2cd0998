"""Classifiers that emit calibrated scores for threshold sweeping."""

from .logreg import LogRegConfig, loss_and_gradient, predict_scores, train_logreg
from .registry import fit_model, model_names, model_params, register_model

__all__ = [
    "LogRegConfig",
    "fit_model",
    "loss_and_gradient",
    "model_names",
    "model_params",
    "predict_scores",
    "register_model",
    "train_logreg",
]
