"""Machine-readable outputs: stage-1 metric tables, sweep CSVs, summary JSON.

CSV values are presented with three decimals (counts stay integers) and
non-finite ratios render as 'undefined'; JSON keeps full float precision so a
round-trip parse is lossless.
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

from ..errors import FairbenchError
from ..metrics.dataset_metrics import DatasetMetrics
from ..pipeline.stage1 import StageOneReport
from ..pipeline.sweep import SweepResult

STAGE1_HEADER = (
    "dataset", "method", "base_rate", "consistency", "disparate_impact",
    "statistical_parity_difference", "num_positives", "num_negatives",
    "empirical_difference",
)

SWEEP_HEADER = (
    "threshold", "balanced_accuracy", "statistical_parity_difference",
    "disparate_impact", "equal_opportunity_difference",
    "average_odds_difference", "theil_index",
    "tpr_unprivileged", "tpr_privileged", "fpr_unprivileged", "fpr_privileged",
)


def _fmt(value, decimals=3):
    if value is None:
        return "undefined"
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return "undefined"
    return f"{value:.{decimals}f}"


def _stage1_row(dataset, method, m: DatasetMetrics):
    return (
        dataset, method, _fmt(m.base_rate), _fmt(m.consistency), _fmt(m.disparate_impact),
        _fmt(m.statistical_parity_difference), str(m.num_positives), str(m.num_negatives),
        _fmt(m.empirical_difference),
    )


def stage1_rows(report: StageOneReport):
    """(dataset, method, metrics) rows for a report: the original, then the processed side."""
    return [
        (report.dataset, "original", report.original_metrics),
        (report.dataset, report.method, report.processed_metrics),
    ]


def write_stage1_csv(rows, path) -> Path:
    """One data row per (dataset, method, DatasetMetrics) row."""
    if not rows:
        raise FairbenchError("no stage-1 rows to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(STAGE1_HEADER) + "\n")
        for dataset, method, metrics in rows:
            fh.write(",".join(_stage1_row(dataset, method, metrics)) + "\n")
    return path


def write_sweep_csv(records, path) -> Path:
    """One row per threshold record of a single split."""
    if not records:
        raise FairbenchError("no sweep records to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SWEEP_HEADER) + "\n")
        for rec in records:
            m = rec.metrics
            cells = (
                _fmt(rec.threshold, 2),
                _fmt(m.balanced_accuracy),
                _fmt(m.statistical_parity_difference),
                _fmt(m.disparate_impact),
                _fmt(m.equal_opportunity_difference),
                _fmt(m.average_odds_difference),
                _fmt(m.theil_index),
                _fmt(m.group_rates[0]["tpr"]),
                _fmt(m.group_rates[1]["tpr"]),
                _fmt(m.group_rates[0]["fpr"]),
                _fmt(m.group_rates[1]["fpr"]),
            )
            fh.write(",".join(cells) + "\n")
    return path


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return {"undefined": repr(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def sweep_summary(result: SweepResult) -> dict:
    m = result.test_at_optimal
    return {
        "arm": result.arm,
        "selection_metric": result.selection_metric,
        "optimal_threshold": result.optimal_threshold,
        "split_hash": result.split_hash,
        "test_metrics_at_optimal": _jsonable(asdict(m)),
        "n_thresholds": {"validation": len(result.validation), "test": len(result.test)},
    }


def write_summary_json(payload: dict, path) -> Path:
    """Versioned, deterministic JSON (sorted keys, full float precision)."""
    doc = {"schema_version": 1}
    doc.update(_jsonable(payload))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
