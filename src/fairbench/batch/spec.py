"""Batch experiment matrices: YAML parsing and Cartesian job expansion."""

import hashlib
from dataclasses import dataclass, field

import yaml

from ..errors import SchemaError
from ..dataset.schema import declared_sensitive_attributes
from ..pipeline.sweep import FAIRNESS_METRICS
from ..util import canonical_json, integer, number

_TOP_KEYS = {
    "datasets", "sensitive_attributes", "methods", "models", "seeds",
    "split", "selection_metric", "output", "parallelism",
}
_DEFAULT_SPLIT = {"train": 0.70, "validation": 0.15, "test": 0.15}
SYNTHETIC_ATTRIBUTE = "group"


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    csv: str = None
    schema: str = None
    synthetic: dict = None  # {n, disparity, seed}

    def source_token(self):
        return self.csv if self.csv else canonical_json(self.synthetic)


@dataclass(frozen=True)
class BatchSpec:
    datasets: tuple
    sensitive_attributes: dict      # dataset name -> list of attribute names
    methods: tuple                  # (name, params) pairs
    models: tuple
    seeds: tuple
    split: dict                     # train/validation/test fractions
    selection_metric: str
    output: str
    parallelism: int


@dataclass(frozen=True)
class JobSpec:
    """One concrete (dataset, attribute, method, model, seed) cell of the matrix."""

    dataset: DatasetEntry
    sensitive: str
    method: str
    method_params: dict
    model: str
    model_params: dict
    seed: int
    split: dict
    selection_metric: str
    job_id: str = field(default="")

    def canonical(self):
        return canonical_json({
            "dataset": self.dataset.name,
            "source": self.dataset.source_token(),
            "sensitive": self.sensitive,
            "method": self.method,
            "method_params": self.method_params,
            "model": self.model,
            "model_params": self.model_params,
            "seed": self.seed,
            "split": self.split,
            "selection_metric": self.selection_metric,
        })

    def __post_init__(self):
        if not self.job_id:
            digest = hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "job_id", digest)


def synthetic_params(raw, key, seed=0):
    """A `synthetic` block as make_synthetic's {n, disparity, seed}; a bad key or value is a SchemaError naming `key`."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{key}: must be a mapping")
    bad = set(raw) - {"n", "disparity", "seed"}
    if bad:
        raise SchemaError(f"{key}: unknown keys {sorted(bad)}")
    return {"n": integer(raw.get("n", 1000), f"{key}.n"),
            "disparity": number(raw.get("disparity", 0.0), f"{key}.disparity"),
            "seed": integer(raw.get("seed", seed), f"{key}.seed")}


def _named_entries(raw, key):
    """Normalize 'RW' / {name: RW} / {name: RW, params: {...}} into (name, params)."""
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{key}: must be a non-empty list")
    out = []
    for i, entry in enumerate(raw):
        if isinstance(entry, str):
            out.append((entry, {}))
            continue
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"{key}[{i}]: need a name (string or mapping with 'name')")
        unknown = set(entry) - {"name", "params"}
        if unknown:
            raise SchemaError(f"{key}[{i}]: unknown keys {sorted(unknown)}")
        params = entry.get("params") or {}
        if not isinstance(params, dict):
            raise SchemaError(f"{key}[{i}].params: must be a mapping")
        out.append((str(entry["name"]), params))
    return tuple(out)


def parse_batch_yaml(text: str) -> BatchSpec:
    """Parse and validate a batch document; unknown keys are rejected with their path."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("batch config must be a mapping")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level key(s): {sorted(unknown)}")
    for required in ("datasets", "methods", "models", "seeds"):
        if required not in doc:
            raise SchemaError(f"{required}: required")

    raw_datasets = doc["datasets"]
    if not isinstance(raw_datasets, list) or not raw_datasets:
        raise SchemaError("datasets: must be a non-empty list")
    datasets = []
    for i, entry in enumerate(raw_datasets):
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"datasets[{i}]: need a mapping with 'name'")
        unknown = set(entry) - {"name", "csv", "schema", "synthetic"}
        if unknown:
            raise SchemaError(f"datasets[{i}]: unknown keys {sorted(unknown)}")
        if "synthetic" in entry:
            syn = synthetic_params(entry["synthetic"] or {}, f"datasets[{i}].synthetic")
            datasets.append(DatasetEntry(name=str(entry["name"]), synthetic=syn))
        else:
            if "csv" not in entry or "schema" not in entry:
                raise SchemaError(f"datasets[{i}]: need 'csv' and 'schema' (or a 'synthetic' block)")
            datasets.append(DatasetEntry(name=str(entry["name"]), csv=str(entry["csv"]),
                                         schema=str(entry["schema"])))

    sensitive = {}
    raw_sensitive = doc.get("sensitive_attributes") or {}
    if not isinstance(raw_sensitive, dict):
        raise SchemaError("sensitive_attributes: must map dataset name -> list of attributes")
    names = {d.name for d in datasets}
    for ds_name, attrs in raw_sensitive.items():
        if str(ds_name) not in names:
            raise SchemaError(f"sensitive_attributes.{ds_name}: no dataset of that name in datasets")
        if not isinstance(attrs, list) or not attrs:
            raise SchemaError(f"sensitive_attributes.{ds_name}: must be a non-empty list")
        sensitive[str(ds_name)] = [str(a) for a in attrs]

    split = dict(_DEFAULT_SPLIT)
    if "split" in doc:
        raw_split = doc["split"] or {}
        if not isinstance(raw_split, dict):
            raise SchemaError(f"split: must map train/validation/test to fractions, got {raw_split!r}")
        bad = set(raw_split) - set(_DEFAULT_SPLIT)
        if bad:
            raise SchemaError(f"split: unknown keys {sorted(bad)} (use train/validation/test)")
        split.update({k: number(v, f"split.{k}") for k, v in raw_split.items()})
    total = sum(split.values())
    if abs(total - 1.0) > 1e-9:
        raise SchemaError(f"split: train+validation+test must sum to 1, got {total}")
    for k, v in split.items():
        if not 0.0 < v < 1.0:
            raise SchemaError(f"split.{k}: fraction must be in (0,1), got {v}")

    seeds = doc["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise SchemaError("seeds: must be a non-empty list of integers")
    seeds = tuple(integer(s, f"seeds[{i}]") for i, s in enumerate(seeds))

    selection = str(doc.get("selection_metric", "SPD"))
    if selection not in FAIRNESS_METRICS:
        raise SchemaError(f"selection_metric: {selection!r} not in {FAIRNESS_METRICS}")

    parallelism = integer(doc.get("parallelism", 1), "parallelism")
    if parallelism < 1:
        raise SchemaError("parallelism: must be >= 1")

    return BatchSpec(
        datasets=tuple(datasets),
        sensitive_attributes=sensitive,
        methods=_named_entries(doc["methods"], "methods"),
        models=_named_entries(doc["models"], "models"),
        seeds=seeds,
        split=split,
        selection_metric=selection,
        output=str(doc.get("output", "fairbench_out")),
        parallelism=parallelism,
    )


def _valid_attributes(entry: DatasetEntry):
    """Declared attribute names, the default first, or None when the schema cannot be read yet.

    An unreadable schema (missing, invalid YAML, no mapping, an undeclared
    default) is a job-level failure: the jobs are still created and fail with
    `load_schema`'s error.
    """
    if entry.synthetic is not None:
        return [SYNTHETIC_ATTRIBUTE]
    try:
        return declared_sensitive_attributes(entry.schema)
    except (OSError, yaml.YAMLError, AttributeError, SchemaError):
        return None


def expand_jobs(spec: BatchSpec):
    """(jobs, skipped): the full Cartesian product minus invalid attribute pairs.

    Ordering is lexicographic on the canonical job serialization; job ids must
    be collision-free across the batch.
    """
    jobs, skipped = [], 0
    for entry in spec.datasets:
        declared = _valid_attributes(entry)
        valid = None if declared is None else set(declared)
        wanted = spec.sensitive_attributes.get(entry.name)
        if not wanted:
            wanted = declared[:1] if declared else [""]
        for attr in wanted:
            if valid is not None and attr not in valid:
                skipped += len(spec.methods) * len(spec.models) * len(spec.seeds)
                continue
            for method, method_params in spec.methods:
                for model, model_params in spec.models:
                    for seed in spec.seeds:
                        jobs.append(JobSpec(
                            dataset=entry,
                            sensitive=attr,
                            method=method,
                            method_params=dict(method_params),
                            model=model,
                            model_params=dict(model_params),
                            seed=seed,
                            split=dict(spec.split),
                            selection_metric=spec.selection_metric,
                        ))
    if not jobs:
        raise SchemaError(f"batch expands to zero jobs ({skipped} combination(s) skipped)")
    jobs.sort(key=lambda j: j.canonical())
    ids = [j.job_id for j in jobs]
    if len(set(ids)) != len(ids):
        raise SchemaError("job id collision in batch expansion")
    return jobs, skipped
