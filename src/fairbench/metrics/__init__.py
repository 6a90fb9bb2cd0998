"""Group fairness and utility metrics for datasets and predictions."""

from .classification import classification_metrics
from .dataset_metrics import (
    base_rate,
    consistency,
    count_labels,
    dataset_metrics,
    disparate_impact,
    empirical_difference,
    statistical_parity_difference,
)

__all__ = [
    "base_rate",
    "classification_metrics",
    "consistency",
    "count_labels",
    "dataset_metrics",
    "disparate_impact",
    "empirical_difference",
    "statistical_parity_difference",
]
