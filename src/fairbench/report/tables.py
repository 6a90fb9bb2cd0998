"""Machine-readable outputs: stage-1 metric tables, sweep CSVs, summary JSON.

CSV values are presented with three decimals (counts stay integers) and
non-finite ratios render as 'undefined'; JSON keeps full float precision so a
round-trip parse is lossless.
"""

import json
import math
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

from ..errors import FairbenchError
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

# the header columns read from a DatasetMetrics / ClassificationMetrics by name
_STAGE1_FIELDS = attrgetter(*STAGE1_HEADER[2:])
_SWEEP_FIELDS = attrgetter(*SWEEP_HEADER[1:7])


def _fmt(value, decimals=3):
    if value is None:
        return "undefined"
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return "undefined"
    return f"{value:.{decimals}f}"


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
    lines = [",".join(STAGE1_HEADER)]
    for dataset, method, metrics in rows:
        lines.append(",".join((dataset, method, *map(_fmt, _STAGE1_FIELDS(metrics)))))
    return write_text("\n".join(lines) + "\n", path)


def render_sweep_csv(records) -> str:
    """One row per threshold record of a single split; returns the CSV document as a string."""
    if not records:
        raise FairbenchError("no sweep records to write")
    lines = [",".join(SWEEP_HEADER)]
    for rec in records:
        m = rec.metrics
        lines.append(",".join((
            _fmt(rec.threshold, 2),
            *map(_fmt, _SWEEP_FIELDS(m)),
            _fmt(m.group_rates[0]["tpr"]),
            _fmt(m.group_rates[1]["tpr"]),
            _fmt(m.group_rates[0]["fpr"]),
            _fmt(m.group_rates[1]["fpr"]),
        )))
    return "\n".join(lines) + "\n"


def write_sweep_csv(records, path) -> Path:
    """`render_sweep_csv(records)`, written to `path`."""
    return write_text(render_sweep_csv(records), path)


def write_text(text: str, path) -> Path:
    """Write `text` to `path` as UTF-8 with its newlines as they are."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")
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
    return write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", path)
