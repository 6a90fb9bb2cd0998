"""Machine-readable outputs: stage-1 metric tables, sweep CSVs, summary JSON.

A sweep CSV is one split's ClassificationTable, written column by column.
CSV values are presented with three decimals (counts stay integers) and
non-finite ratios render as 'undefined'; JSON keeps full float precision so a
round-trip parse is lossless.
"""

import json
import math
from dataclasses import asdict
from operator import attrgetter
from pathlib import Path

from ..dataset.table import write_csv
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

# the header columns read from a DatasetMetrics / ClassificationTable by name
_STAGE1_FIELDS = attrgetter(*STAGE1_HEADER[2:])
_SWEEP_FIELDS = attrgetter(*SWEEP_HEADER[1:7])
_SWEEP_RATES = ((0, "tpr"), (1, "tpr"), (0, "fpr"), (1, "fpr"))


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
    return write_csv(path, STAGE1_HEADER,
                     [(dataset, method, *map(_fmt, _STAGE1_FIELDS(metrics))) for dataset, method, metrics in rows])


def render_sweep_csv(table) -> str:
    """One row per threshold of a single split's ClassificationTable; returns the CSV document as a string."""
    if not len(table):
        raise FairbenchError("no sweep rows to write")
    columns = (
        [_fmt(t, 2) for t in table.thresholds],
        *(map(_fmt, values) for values in _SWEEP_FIELDS(table)),
        *(map(_fmt, table.group_rates[g][rate]) for g, rate in _SWEEP_RATES),
    )
    # joined, not `write_csv`: a formatted number or 'undefined' never needs quoting, and the join is
    # several times faster than `write_csv`'s writer on the four 99-row sweeps a job writes
    return "\n".join((",".join(SWEEP_HEADER), *map(",".join, zip(*columns)))) + "\n"


def write_sweep_csv(table, path) -> Path:
    """`render_sweep_csv(table)`, written to `path`."""
    return write_text(render_sweep_csv(table), path)


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
    return {
        "arm": result.arm,
        "selection_metric": result.selection_metric,
        "optimal_threshold": result.optimal_threshold,
        "split_hash": result.split_hash,
        "test_metrics_at_optimal": _jsonable(asdict(result.test_at_optimal)),
        "n_thresholds": {"validation": len(result.validation), "test": len(result.test)},
    }


def write_json(doc, path) -> Path:
    """Deterministic JSON (sorted keys, full float precision, non-finite floats as `Infinity` and `NaN`)."""
    return write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", path)


def write_summary_json(payload: dict, path) -> Path:
    """`write_json` of `payload`, versioned, with each non-finite float as an `{"undefined": ...}` object."""
    return write_json({"schema_version": 1, **_jsonable(payload)}, path)
