"""Content-addressed dataset cache.

Entries are binary files (`<cache_root>/<hex key>.fpds`): an 8-byte magic, the
byte length of a JSON header (version, n, d, feature names, provenance), the
header, then the raw little-endian arrays features (n x d float64, row-major),
labels and protected (int64) and weights (float64). A round-trip is therefore
bit-identical. An original dataset is keyed on the sha256 of its own entry
bytes, so a hit means the same arrays, names and provenance, the protected
column included; a processed dataset is keyed on (original key, method,
parameters, seed). Writes go to a temp file in the same directory, are fsynced
and then atomically renamed, so concurrent batch jobs never observe a partial
entry. An entry that cannot be read back is a miss, with a warning.
"""

import hashlib
import json
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np

from ..errors import DataFormatError, FairbenchError, FairbenchWarning
from ..util import canonical_json
from .tabular import TabularDataset

MAGIC = b"FPDSBIN\n"
VERSION = 2
_HEADER_LEN = struct.Struct("<Q")
_ARRAYS = (("features", "<f8"), ("labels", "<i8"), ("protected", "<i8"), ("weights", "<f8"))


def cache_key(dataset_key, method_name, params, seed) -> str:
    """Hash of (dataset key, method, parameters, seed); hex, stable across runs."""
    blob = canonical_json({"dataset": str(dataset_key), "method": str(method_name),
                           "params": params or {}, "seed": int(seed)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def content_key(ds: TabularDataset) -> str:
    """sha256 of the dataset's cache entry bytes; the key of an original dataset."""
    return hashlib.sha256(dumps(ds)).hexdigest()


def cache_path(cache_root, key) -> Path:
    return Path(cache_root) / f"{key}.fpds"


def dumps(ds: TabularDataset) -> bytes:
    header = canonical_json({"version": VERSION, "n": ds.n, "d": ds.dim,
                             "feature_names": list(ds.feature_names),
                             "provenance": ds.provenance}).encode("utf-8")
    arrays = [np.ascontiguousarray(getattr(ds, name), dtype=dtype).tobytes() for name, dtype in _ARRAYS]
    return b"".join([MAGIC, _HEADER_LEN.pack(len(header)), header, *arrays])


def loads(blob: bytes) -> TabularDataset:
    """Parse one entry; a wrong magic, version or length raises DataFormatError."""
    if blob[:len(MAGIC)] != MAGIC:
        raise DataFormatError("not a binary dataset cache entry (bad magic)")
    start = len(MAGIC) + _HEADER_LEN.size
    if len(blob) < start:
        raise DataFormatError(f"cache entry truncated at {len(blob)} bytes")
    (header_len,) = _HEADER_LEN.unpack_from(blob, len(MAGIC))
    try:
        header = json.loads(blob[start:start + header_len])
        version, n, d = header["version"], int(header["n"]), int(header["d"])
        names, provenance = tuple(header["feature_names"]), str(header["provenance"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"corrupt cache entry header: {exc!r}") from exc
    if version != VERSION:
        raise DataFormatError(f"unsupported cache version {version!r}")
    dtypes = [np.dtype(dtype) for _, dtype in _ARRAYS]
    counts = (n * d, n, n, n)
    expected = start + header_len + sum(dt.itemsize * c for dt, c in zip(dtypes, counts))
    if n < 1 or d < 1 or len(blob) != expected:
        raise DataFormatError(f"cache entry has {len(blob)} bytes, expected {expected} for n={n}, d={d}")
    offset = start + header_len
    arrays = []
    for dtype, count in zip(dtypes, counts):
        arrays.append(np.frombuffer(blob, dtype=dtype, count=count, offset=offset))
        offset += dtype.itemsize * count
    features, labels, protected, weights = arrays
    return TabularDataset(features.reshape(n, d), labels, protected, weights, names, provenance)


# temp files of the entries this process is writing, for remove_partial_writes
_WRITING = set()


def cache_store(ds: TabularDataset, key: str, cache_root) -> Path:
    """Write atomically; storing twice under one key leaves a single entry (last wins)."""
    root = Path(cache_root)
    root.mkdir(parents=True, exist_ok=True)
    target = cache_path(root, key)
    fd, tmp = tempfile.mkstemp(dir=root, prefix=".fpds-", suffix=".tmp")
    _WRITING.add(tmp)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(dumps(ds))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    finally:
        _WRITING.discard(tmp)
    return target


def remove_partial_writes():
    """Delete the temp files of the entries this process is writing, before it exits mid-write."""
    for tmp in list(_WRITING):
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # renamed into place just now
            pass


def cache_load(key: str, cache_root):
    """Return the cached dataset, or None on a miss.

    An absent entry is a silent miss; a truncated, corrupt or old-format entry
    is a miss with a FairbenchWarning naming the file, so the caller recomputes
    and rewrites it.
    """
    target = cache_path(cache_root, key)
    try:
        blob = target.read_bytes()
    except FileNotFoundError:
        return None
    try:
        return loads(blob)
    except FairbenchError as exc:
        warnings.warn(f"ignoring unreadable cache entry {target}: {exc}", FairbenchWarning)
        return None
