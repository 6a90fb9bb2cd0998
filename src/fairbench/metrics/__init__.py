"""Group fairness and utility metrics for datasets and predictions."""

from .classification import (
    ClassificationMetrics,
    GroupConfusion,
    average_odds_difference,
    balanced_accuracy,
    classification_metrics,
    equal_opportunity_difference,
    group_confusion,
    theil_index,
)
from .dataset_metrics import (
    DatasetMetrics,
    base_rate,
    consistency,
    count_labels,
    dataset_metrics,
    disparate_impact,
    empirical_difference,
    statistical_parity_difference,
)

__all__ = [
    "ClassificationMetrics",
    "DatasetMetrics",
    "GroupConfusion",
    "average_odds_difference",
    "balanced_accuracy",
    "base_rate",
    "classification_metrics",
    "consistency",
    "count_labels",
    "dataset_metrics",
    "disparate_impact",
    "empirical_difference",
    "equal_opportunity_difference",
    "group_confusion",
    "statistical_parity_difference",
    "theil_index",
]
