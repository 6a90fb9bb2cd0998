"""Batch experiment matrices: YAML parsing and Cartesian job expansion."""

import hashlib
from dataclasses import dataclass, field

from ..errors import FairbenchError, SchemaError
from ..dataset.schema import declared_sensitive_attributes
from ..dataset.split import SplitSpec
from ..model import model_names
from ..preproc import METHOD_NAMES
from ..pipeline.sweep import FAIRNESS_METRICS
from ..util import canonical_json, integer, listing, mapping, number, seed_value, string, yaml_document

_TOP_KEYS = {
    "datasets", "sensitive_attributes", "methods", "models", "seeds",
    "split", "selection_metric", "output", "parallelism",
}
_SPLIT_KEYS = ("train", "validation", "test")
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


def synthetic_params(raw, key):
    """A `synthetic` block as make_synthetic's {n, disparity, seed}; a bad key or value is a SchemaError naming `key`."""
    raw = mapping(raw, key, ("n", "disparity", "seed"))
    return {"n": integer(raw.get("n", 1000), f"{key}.n"),
            "disparity": number(raw.get("disparity", 0.0), f"{key}.disparity"),
            "seed": seed_value(raw.get("seed", 0), f"{key}.seed")}


def _named_entries(raw, key, kind, known):
    """Normalize 'RW' / {name: RW} / {name: RW, params: {...}} into (name, params).

    A name outside `known`, the registry's own list, is a SchemaError naming its entry.
    """
    out = []
    for i, entry in enumerate(listing(raw, key, required=True)):
        entry = mapping({"name": entry} if isinstance(entry, str) else entry, f"{key}[{i}]", ("name", "params"),
                        needs=("name",))
        name = str(entry["name"])
        if name not in known:
            raise SchemaError(f"{key}[{i}].name: unknown {kind} {name!r}; expected one of {list(known)}")
        out.append((name, mapping(entry.get("params"), f"{key}[{i}].params")))
    return tuple(out)


def dataset_entry(entry, where):
    """One `datasets` entry, or `fairbench prep`'s dataset: a name with a `synthetic` block, or with `csv`
    and `schema` paths."""
    entry = mapping(entry, where, ("name", "csv", "schema", "synthetic"), needs=("name",))
    name = str(entry["name"])
    if not name.isprintable():  # a bare "\r" would split its stage-1 CSV row, as `write_csv` does not quote it
        raise SchemaError(f"{where}.name: {name!r} holds a character that does not print")
    if "synthetic" in entry:
        if "csv" in entry or "schema" in entry:
            raise SchemaError(f"{where}: csv and schema do not apply to a synthetic dataset")
        return DatasetEntry(name, synthetic=synthetic_params(entry["synthetic"], f"{where}.synthetic"))
    if "csv" not in entry or "schema" not in entry:
        raise SchemaError(f"{where}: need 'csv' and 'schema' (or a 'synthetic' block)")
    return DatasetEntry(name, csv=string(entry["csv"], f"{where}.csv"),
                        schema=string(entry["schema"], f"{where}.schema"))


def parse_batch_yaml(text: str) -> BatchSpec:
    """Parse and validate a batch document; unknown keys are rejected with their path."""
    doc = mapping(yaml_document(text, "batch config"), "batch config", _TOP_KEYS, required=True)
    datasets = tuple(dataset_entry(entry, f"datasets[{i}]")
                     for i, entry in enumerate(listing(doc.get("datasets"), "datasets", required=True)))

    sensitive = {}
    names = {d.name for d in datasets}
    for ds_name, attrs in mapping(doc.get("sensitive_attributes"), "sensitive_attributes").items():
        where = f"sensitive_attributes.{ds_name}"
        if str(ds_name) not in names:
            raise SchemaError(f"{where}: no dataset of that name in datasets")
        sensitive[str(ds_name)] = [str(a) for a in listing(attrs, where, required=True)]

    split = {k: getattr(SplitSpec, k) for k in _SPLIT_KEYS}
    split.update({k: number(v, f"split.{k}") for k, v in mapping(doc.get("split"), "split", _SPLIT_KEYS).items()})
    try:
        SplitSpec(**split)
    except FairbenchError as exc:
        raise SchemaError(f"split: {exc}") from exc

    seeds = tuple(seed_value(s, f"seeds[{i}]") for i, s in enumerate(listing(doc.get("seeds"), "seeds", required=True)))

    selection = str(doc.get("selection_metric", "SPD"))
    if selection not in FAIRNESS_METRICS:
        raise SchemaError(f"selection_metric: {selection!r} not in {FAIRNESS_METRICS}")

    parallelism = integer(doc.get("parallelism", 1), "parallelism", least=1)

    return BatchSpec(
        datasets=datasets,
        sensitive_attributes=sensitive,
        methods=_named_entries(doc.get("methods"), "methods", "method", METHOD_NAMES),
        models=_named_entries(doc.get("models"), "models", "model", model_names()),
        seeds=seeds,
        split=split,
        selection_metric=selection,
        output=string(doc.get("output", "fairbench_out"), "output"),
        parallelism=parallelism,
    )


def _valid_attributes(entry: DatasetEntry):
    """Declared attribute names, the default first, or None when the schema cannot be read yet.

    An unreadable schema (missing, invalid YAML, no mapping, a mistyped block,
    an undeclared default) is a job-level failure: the jobs are still created
    and fail with `load_schema`'s error.
    """
    if entry.synthetic is not None:
        return [SYNTHETIC_ATTRIBUTE]
    try:
        return declared_sensitive_attributes(entry.schema)
    except (OSError, SchemaError):
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
    seen = {}
    for job in jobs:
        if seen.setdefault(job.job_id, job) is not job:
            raise SchemaError(
                f"job id collision in batch expansion: the job for dataset {job.dataset.name!r}, attribute "
                f"{job.sensitive!r}, method {job.method!r}, model {job.model!r}, seed {job.seed} repeats "
                "because an entry is listed twice")
    return jobs, skipped
