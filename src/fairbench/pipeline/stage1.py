"""Stage 1: transform a full dataset and report data-level metrics on both versions."""

from dataclasses import asdict, dataclass
from pathlib import Path

from ..dataset import TabularDataset, cache_key, cache_load, cache_store, content_key, encode, load_csv
from ..metrics.dataset_metrics import DatasetMetrics, dataset_metrics, remember_consistency
from ..preproc import METHOD_NAMES, apply_method
from ..errors import FairbenchError


@dataclass(frozen=True)
class StageOneReport:
    dataset: str
    method: str
    params: dict
    seed: int
    original_metrics: DatasetMetrics
    processed_metrics: DatasetMetrics
    original_cache_key: str
    processed_cache_key: str

    def to_dict(self):
        return {
            "schema_version": 1,
            "dataset": self.dataset,
            "method": self.method,
            "params": self.params,
            "seed": self.seed,
            "original_metrics": asdict(self.original_metrics),
            "processed_metrics": asdict(self.processed_metrics),
            "original_cache_key": self.original_cache_key,
            "processed_cache_key": self.processed_cache_key,
        }

    @classmethod
    def from_dict(cls, doc):
        if doc.get("schema_version") != 1:
            raise FairbenchError(f"unsupported stage-1 report version {doc.get('schema_version')!r}")
        return cls(
            dataset=doc["dataset"],
            method=doc["method"],
            params=doc["params"],
            seed=doc["seed"],
            original_metrics=DatasetMetrics(**doc["original_metrics"]),
            processed_metrics=DatasetMetrics(**doc["processed_metrics"]),
            original_cache_key=doc["original_cache_key"],
            processed_cache_key=doc["processed_cache_key"],
        )


def load_dataset(source, schema=None) -> TabularDataset:
    """Resolve a dataset argument: an encoded dataset passes through, a CSV path loads."""
    if isinstance(source, TabularDataset):
        return source
    if schema is None:
        raise FairbenchError("loading from a file requires a schema")
    return encode(load_csv(Path(source), schema), schema)


@dataclass(frozen=True)
class PreparedOriginal:
    """An original dataset that is ingested, cached under `cache_key` and measured.

    Small and picklable: one preparation serves every job on the dataset, in
    any process that shares the cache directory.
    """

    name: str
    cache_key: str
    metrics: DatasetMetrics


def prepare_original(dataset, schema=None, cache_dir="fairbench_cache",
                     dataset_name: str = None) -> PreparedOriginal:
    """Load/encode `dataset`, store its cache entry unless a readable one exists, and measure it."""
    ds = load_dataset(dataset, schema)
    key = content_key(ds)
    if cache_load(key, cache_dir) is None:
        cache_store(ds, key, cache_dir)
    name = dataset_name or (schema.name if schema is not None else ds.provenance or "dataset")
    return PreparedOriginal(name, key, dataset_metrics(ds))


def run_prep_stage(dataset, schema, method: str, params=None, seed: int = 0,
                   cache_dir="fairbench_cache", dataset_name: str = None) -> StageOneReport:
    """Transform the full original dataset, compute the processed metrics, cache the result.

    `dataset` may be a CSV path (with `schema`), an already encoded
    TabularDataset (schema optional), or the PreparedOriginal of either; the
    first two are prepared here. The original is always read back from the
    cache. A warm cache short-circuits the transform: the processed dataset
    is loaded back instead of re-fitted.
    """
    if method not in METHOD_NAMES:
        raise FairbenchError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    params = dict(params or {})
    prepared = dataset
    if not isinstance(prepared, PreparedOriginal):
        prepared = prepare_original(dataset, schema, cache_dir, dataset_name)
    ds = cache_load(prepared.cache_key, cache_dir)
    if ds is None:
        raise FairbenchError(f"original dataset {prepared.name!r} ({prepared.cache_key}) "
                             f"is no longer readable in cache {cache_dir}")
    # RW keeps the original's features and labels, so this is its consistency too
    remember_consistency(ds, prepared.metrics.consistency)
    key_proc = cache_key(prepared.cache_key, method, params, seed)

    processed = cache_load(key_proc, cache_dir)
    if processed is None:
        processed = apply_method(method, ds, params, seed)
        cache_store(processed, key_proc, cache_dir)

    return StageOneReport(
        dataset=prepared.name,
        method=method,
        params=params,
        seed=seed,
        original_metrics=prepared.metrics,
        processed_metrics=dataset_metrics(processed),
        original_cache_key=prepared.cache_key,
        processed_cache_key=key_proc,
    )
