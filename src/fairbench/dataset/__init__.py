"""Ingestion, encoding, splitting, caching, and synthetic fixtures."""

from .cache import cache_key, cache_load, cache_path, cache_store, content_key
from .encode import encode
from .schema import DatasetSchema, load_schema, schema_from_dict
from .split import SplitSpec, split, split_indices
from .synthetic import make_synthetic
from .table import RawTable, load_csv
from .tabular import TabularDataset, apply_standardization, datasets_equal, standardize

__all__ = [
    "DatasetSchema",
    "RawTable",
    "SplitSpec",
    "TabularDataset",
    "apply_standardization",
    "cache_key",
    "cache_load",
    "cache_path",
    "cache_store",
    "content_key",
    "datasets_equal",
    "encode",
    "load_csv",
    "load_schema",
    "make_synthetic",
    "schema_from_dict",
    "split",
    "split_indices",
    "standardize",
]
