"""YAML experiment matrices: parse, expand, execute."""

from .runner import run_batch
from .spec import expand_jobs, parse_batch_yaml

__all__ = [
    "expand_jobs",
    "parse_batch_yaml",
    "run_batch",
]
