"""YAML experiment matrices: parse, expand, execute."""

from .runner import BatchReport, JobOutcome, run_batch
from .spec import BatchSpec, DatasetEntry, JobSpec, expand_jobs, parse_batch_yaml

__all__ = [
    "BatchReport",
    "BatchSpec",
    "DatasetEntry",
    "JobOutcome",
    "JobSpec",
    "expand_jobs",
    "parse_batch_yaml",
    "run_batch",
]
