"""Stage 2: train on original and processed data, sweep thresholds, pick the best.

Both arms consume the split of the original dataset that the seed gives, one per
(dataset, sensitive attribute, seed) across a batch; the transform is re-fitted on the
training split only, so no information leaks. The optimal threshold is selected on the
validation sweep and the test metrics at that threshold are reported.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

# stage 2 reads no cache entry itself; bench/spans.py wraps `cache_load` under this module's name
from ..dataset import SplitSpec, TabularDataset, cache_load, split_indices
from ..errors import FairbenchError
from ..model import fit_model
from ..preproc import fit_method
from .stage1 import StageOneReport, load_original
from .sweep import SweepResult, select_optimal_threshold, sweep_thresholds


@dataclass(frozen=True)
class BenchStageResult:
    original: SweepResult       # None when that arm failed
    processed: SweepResult
    errors: dict                # arm name -> message for failed arms


def _hash_indices(parts):
    h = hashlib.sha256()
    for idx in parts:
        h.update(np.ascontiguousarray(idx, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()


def _run_arm(arm, train, val, test, model_name, model_params, seed, selection_metric, split_hash):
    scorer = fit_model(model_name, train, model_params, seed)
    sweeps = {
        split_name: sweep_thresholds(ds.labels, scorer.score(ds), ds.protected)
        for split_name, ds in (("validation", val), ("test", test))
    }
    best_t = select_optimal_threshold(sweeps["validation"], selection_metric)
    at_optimal = next(rec.metrics for rec in sweeps["test"] if rec.threshold == best_t)
    return SweepResult(
        arm=arm,
        validation=sweeps["validation"],
        test=sweeps["test"],
        optimal_threshold=best_t,
        selection_metric=selection_metric,
        test_at_optimal=at_optimal,
        split_hash=split_hash,
    )


def run_bench_stage(stage1: StageOneReport, model_name: str = "logreg", model_params=None,
                    split_spec: SplitSpec = None, selection_metric: str = "SPD",
                    cache_dir="fairbench_cache", original: TabularDataset = None) -> BenchStageResult:
    """Benchmark the original arm against the re-fitted transform arm.

    `original` is the original dataset that stage 1 read, as a batch job
    passes it; when it is None, as from `fairbench bench`, stage 1's
    `load_original` reads it back from the cache and checks it against its
    key. A failure in one arm is recorded and does not abort the other; at
    least one arm must succeed.
    """
    split_spec = split_spec or SplitSpec(seed=stage1.seed)
    if original is None:
        original = load_original(stage1.original_cache_key, cache_dir, stage1.dataset)

    idx = split_indices(original, split_spec)
    split_hash = _hash_indices(idx)
    orig_train, orig_val, orig_test = (original.take(i) for i in idx)

    results, errors = {}, {}
    try:
        results["original"] = _run_arm(
            "original", orig_train, orig_val, orig_test, model_name, model_params,
            stage1.seed, selection_metric, split_hash,
        )
    except Exception as exc:  # isolated per arm
        results["original"] = None
        errors["original"] = f"{type(exc).__name__}: {exc}"

    try:
        fitted = fit_method(stage1.method, orig_train, stage1.params, stage1.seed)
        results["processed"] = _run_arm(
            "processed", fitted.train, fitted.transform_eval(orig_val),
            fitted.transform_eval(orig_test), model_name, model_params,
            stage1.seed, selection_metric, split_hash,
        )
    except Exception as exc:
        results["processed"] = None
        errors["processed"] = f"{type(exc).__name__}: {exc}"

    if results["original"] is None and results["processed"] is None:
        raise FairbenchError(f"both arms failed: {errors}")
    return BenchStageResult(original=results["original"], processed=results["processed"], errors=errors)
