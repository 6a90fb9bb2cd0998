"""fairbench: benchmark fairness-aware pre-processing on tabular data.

Two-stage protocol: stage 1 applies a bias-mitigation transform to a dataset
and reports data-level group fairness metrics on the original and processed
versions; stage 2 trains a classifier on both, sweeps the decision threshold
from 0.01 to 0.99, and selects a threshold balancing fairness and accuracy.
Batch execution over YAML experiment matrices is provided, with deterministic
seeding and an atomic on-disk dataset cache.
"""

from .dataset import (
    DatasetSchema,
    RawTable,
    SplitSpec,
    TabularDataset,
    cache_key,
    cache_load,
    cache_store,
    encode,
    load_csv,
    load_schema,
    make_synthetic,
    split,
)
from .errors import (
    DataFormatError,
    FairbenchError,
    FairbenchWarning,
    FitError,
    SchemaError,
    UndefinedMetricError,
)
from .metrics import ClassificationMetrics, DatasetMetrics, classification_metrics, dataset_metrics
from .model import LogRegConfig, TrainedModel, predict_scores, train_logreg
from .pipeline import (
    StageOneReport,
    SweepResult,
    run_bench_stage,
    run_prep_stage,
    select_optimal_threshold,
    sweep_thresholds,
)
from .preproc import apply_method, dir_repair, fit_method, lfr_fit, lfr_transform, opp_fit, opp_transform, reweigh

__version__ = "0.1.0"

__all__ = [
    "ClassificationMetrics",
    "DataFormatError",
    "DatasetMetrics",
    "DatasetSchema",
    "FairbenchError",
    "FairbenchWarning",
    "FitError",
    "LogRegConfig",
    "RawTable",
    "SchemaError",
    "SplitSpec",
    "StageOneReport",
    "SweepResult",
    "TabularDataset",
    "TrainedModel",
    "UndefinedMetricError",
    "apply_method",
    "cache_key",
    "cache_load",
    "cache_store",
    "classification_metrics",
    "dataset_metrics",
    "dir_repair",
    "encode",
    "fit_method",
    "lfr_fit",
    "lfr_transform",
    "load_csv",
    "load_schema",
    "make_synthetic",
    "opp_fit",
    "opp_transform",
    "predict_scores",
    "reweigh",
    "run_bench_stage",
    "run_prep_stage",
    "select_optimal_threshold",
    "split",
    "sweep_thresholds",
    "train_logreg",
    "__version__",
]
