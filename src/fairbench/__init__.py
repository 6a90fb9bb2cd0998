"""fairbench: benchmark fairness-aware pre-processing on tabular data.

Two-stage protocol: stage 1 applies a bias-mitigation transform to a dataset
and reports data-level group fairness metrics on the original and processed
versions; stage 2 trains a classifier on both, sweeps the decision threshold
from 0.01 to 0.99, and selects a threshold balancing fairness and accuracy.
Batch execution over YAML experiment matrices is provided, with deterministic
seeding and an atomic on-disk dataset cache.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
