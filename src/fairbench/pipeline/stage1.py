"""Stage 1: transform a full dataset and report data-level metrics on both versions, recorded in the cache."""

from dataclasses import asdict, dataclass
from pathlib import Path

from ..dataset import TabularDataset, cache_key, cache_load, cache_store, encode, load_csv
from ..dataset.cache import cache_holds, dumps, record_load, record_store
from ..metrics.dataset_metrics import DatasetMetrics, dataset_metrics
from ..preproc import SEEDED_METHODS, apply_method, method_params
from ..errors import FairbenchError
from ..util import Settings, from_mapping, mapping, setting


@dataclass(frozen=True)
class StageOneReport(Settings):
    dataset: str
    method: str
    params: dict
    seed: int = setting(least=0)  # checked with --split-seed too: it seeds the transform, not only the split
    original_metrics: DatasetMetrics
    processed_metrics: DatasetMetrics
    original_cache_key: str
    processed_cache_key: str

    def to_dict(self):
        return {"schema_version": 1, **asdict(self)}

    @classmethod
    def from_dict(cls, doc):
        """The report `to_dict` gave; a document of another shape, or a method or params that `prep` would refuse,
        is a FairbenchError saying what is wrong."""
        doc = dict(mapping(doc, "stage-1 report", required=True))
        if (version := doc.pop("schema_version", None)) != 1:
            raise FairbenchError(f"unsupported stage-1 report version {version!r}")
        report = from_mapping(cls, doc, "stage-1 report")
        method_params(report.method, report.params, "stage-1 report.params")
        return report


@dataclass(frozen=True)
class PreparedOriginal:
    """An original dataset that is ingested, cached under its content key `cache_key`, and measured.

    Small and picklable: one preparation serves every job on the dataset, in
    any process that shares the cache directory.
    """

    name: str
    cache_key: str
    metrics: DatasetMetrics


def _recorded_metrics(key, cache_dir, measure) -> DatasetMetrics:
    """The metrics recorded under `key`, or else `measure()`'s, recorded there."""
    recorded = record_load(key, cache_dir, lambda doc: from_mapping(DatasetMetrics, doc, "its fields"))
    if recorded is not None:
        return recorded
    metrics = measure()
    record_store(asdict(metrics), key, cache_dir)
    return metrics


def prepare_original(dataset, schema=None, cache_dir="fairbench_cache",
                     dataset_name: str = None) -> PreparedOriginal:
    """Cache `dataset` under its content key unless its entry reads back, and measure it.

    An encoded TabularDataset passes through; a CSV path is loaded and encoded
    under `schema`. Its key and entry bytes, made once, are compared with the
    file's, which are parsed only when they differ, and written unless the
    file holds the same dataset. The metrics are read
    from the original's record, or computed and recorded.
    """
    ds = dataset
    if not isinstance(ds, TabularDataset):
        if schema is None:
            raise FairbenchError("loading from a file requires a schema")
        ds = encode(load_csv(Path(dataset), schema), schema)
    key, entry = dumps(ds)
    if not cache_holds(entry, key, cache_dir):
        cache_store(entry, key, cache_dir)
    del entry  # freed before the kNN pass, which sets the peak memory
    name = dataset_name or (schema.name if schema is not None else ds.provenance or "dataset")
    return PreparedOriginal(name, key, _recorded_metrics(key, cache_dir, lambda: dataset_metrics(ds)))


def load_original(cache_key: str, cache_dir, name: str) -> TabularDataset:
    """Read the original dataset `name` back from the cache, checked against its content key `cache_key`."""
    ds = cache_load(cache_key, cache_dir)
    if ds is None:
        raise FairbenchError(f"original dataset {name!r} is not cached under {cache_key} in {cache_dir}, "
                             f"or is no longer readable there")
    return ds


def run_prep_stage(dataset, method: str, params=None, seed: int = 0,
                   cache_dir="fairbench_cache", dataset_name: str = None,
                   original: TabularDataset = None) -> StageOneReport:
    """Report the metrics of the original dataset and of its transform by `method`.

    `dataset` is an encoded TabularDataset, prepared here, or the
    PreparedOriginal of one (`prepare_original` also reads a CSV). The
    processed metrics are read from the record under `processed_cache_key`,
    which names the seed only for the methods that read it
    (`SEEDED_METHODS`). On a miss the full original is
    transformed and measured, and the record written; the original is
    `original`, what `load_original` read for that preparation, or else read
    back from the cache here. A processed dataset with the original's
    features and labels reuses the prepared consistency (see `dataset_metrics`).
    """
    params = dict(params or {})
    prepared = dataset
    if not isinstance(prepared, PreparedOriginal):
        prepared = prepare_original(dataset, None, cache_dir, dataset_name)
    key_proc = cache_key(prepared.cache_key, method, params, seed if method in SEEDED_METHODS else None)

    def measure():
        ds = original if original is not None else load_original(prepared.cache_key, cache_dir, prepared.name)
        return dataset_metrics(apply_method(method, ds, params, seed), reference=(ds, prepared.metrics))

    return StageOneReport(
        dataset=prepared.name,
        method=method,
        params=params,
        seed=seed,
        original_metrics=prepared.metrics,
        processed_metrics=_recorded_metrics(key_proc, cache_dir, measure),
        original_cache_key=prepared.cache_key,
        processed_cache_key=key_proc,
    )
