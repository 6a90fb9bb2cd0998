"""Two-stage orchestration: data-level reporting, then threshold-swept benchmarking."""

from .stage1 import StageOneReport, run_prep_stage
from .stage2 import run_bench_stage
from .sweep import FAIRNESS_METRICS, default_grid, select_optimal_threshold, sweep_thresholds

__all__ = [
    "FAIRNESS_METRICS",
    "StageOneReport",
    "default_grid",
    "run_bench_stage",
    "run_prep_stage",
    "select_optimal_threshold",
    "sweep_thresholds",
]
