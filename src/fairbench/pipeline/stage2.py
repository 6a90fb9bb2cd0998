"""Stage 2: train on original and processed data, sweep thresholds, pick the best.

Both arms consume the split of the original dataset that the seed gives, one per
(dataset, sensitive attribute, seed) across a batch, which runs each original arm once
for every job that shares it; the transform is re-fitted on the
training split only, so no information leaks. The optimal threshold is selected on the
validation sweep and the test metrics at that threshold are reported.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

# stage 2 reads no cache entry itself; bench/spans.py wraps `cache_load` under this module's name
from ..dataset import SplitSpec, TabularDataset, cache_load, split_indices
from ..errors import FairbenchError, error_text
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


def split_original(original: TabularDataset, split_spec: SplitSpec):
    """(split hash, (train, validation, test)): `original` split by `split_spec`, as both arms use it."""
    idx = split_indices(original, split_spec)
    return _hash_indices(idx), tuple(original.take(i) for i in idx)


def _isolated(run, *args):
    """run(*args), or its error text when it raises: a failed arm does not abort the other."""
    try:
        return run(*args)
    except Exception as exc:
        return error_text(exc)


def _run_arm(arm, train, val, test, model_name, model_params, seed, selection_metric, split_hash):
    scorer = fit_model(model_name, train, model_params, seed)
    val_sweep, test_sweep = (sweep_thresholds(ds.labels, scorer.score(ds), ds.protected, ds.weights)
                             for ds in (val, test))
    return SweepResult(arm=arm, validation=val_sweep, test=test_sweep,
                       optimal_threshold=select_optimal_threshold(val_sweep, selection_metric),
                       selection_metric=selection_metric, split_hash=split_hash)


def run_original_arm(split, model_name: str, model_params, seed: int, selection_metric: str):
    """The original arm on `split`, from `split_original`: its SweepResult, or its error text."""
    split_hash, parts = split
    return _isolated(_run_arm, "original", *parts, model_name, model_params, seed, selection_metric, split_hash)


def _run_processed_arm(stage1, split, model_name, model_params, selection_metric):
    split_hash, (train, val, test) = split
    fitted = fit_method(stage1.method, train, stage1.params, stage1.seed)
    return _run_arm("processed", fitted.train, fitted.transform_eval(val), fitted.transform_eval(test),
                    model_name, model_params, stage1.seed, selection_metric, split_hash)


def run_bench_stage(stage1: StageOneReport, model_name: str = "logreg", model_params=None,
                    split_spec: SplitSpec = None, selection_metric: str = "SPD",
                    cache_dir="fairbench_cache", original: TabularDataset = None,
                    original_arm=None) -> BenchStageResult:
    """Benchmark the original arm against the re-fitted transform arm.

    `original` is the original dataset that stage 1 read, as a batch job
    passes it; when it is None, as from `fairbench bench`, stage 1's
    `load_original` reads it back from the cache and checks it against its
    key. `original_arm` is the original arm's outcome when it ran elsewhere,
    its SweepResult or its error text: a batch runs it once per (dataset,
    sensitive attribute, split, seed, model, model parameters, selection
    metric). When it is None, both arms run here. A failure in one arm is
    recorded and does not abort the other; at least one arm must succeed.
    """
    split_spec = split_spec or SplitSpec(seed=stage1.seed)
    if original is None:
        original = load_original(stage1.original_cache_key, cache_dir, stage1.dataset)

    split = split_original(original, split_spec)
    if original_arm is None:
        original_arm = run_original_arm(split, model_name, model_params, stage1.seed, selection_metric)
    arms = {
        "original": original_arm,
        "processed": _isolated(_run_processed_arm, stage1, split, model_name, model_params, selection_metric),
    }
    errors = {arm: outcome for arm, outcome in arms.items() if isinstance(outcome, str)}
    if len(errors) == len(arms):
        raise FairbenchError(f"both arms failed: {errors}")
    return BenchStageResult(**{arm: None if arm in errors else outcome for arm, outcome in arms.items()},
                            errors=errors)
