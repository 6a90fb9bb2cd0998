"""Content-addressed dataset cache.

Entries are binary files (`<cache_root>/<hex key>.fpds`): an 8-byte magic, the
byte length of a JSON header, the header, then raw little-endian arrays.

A full entry's header holds the version, n, d, feature names and provenance;
its body holds the features (n x d float64, row-major), labels and protected
(int64) and weights (float64). A round-trip is therefore bit-identical. An
original dataset is keyed on the sha256 of its own full entry bytes, so a hit
means the same arrays, names and provenance, the protected column included; a
processed dataset is keyed on (original key, method, parameters, seed).

A processed dataset is stored as a delta entry on its original. The header
names the original's key as `base` and lists the feature `columns` and the
`arrays` whose bits differ from the base; the body holds only those, the
columns as one n x k row-major block. Bits are compared through uint64 views,
so 0.0 against -0.0 is a difference. A dataset whose n or feature names differ
from the base's is stored in full. Loading a delta entry first checks that the
base file's bytes still hash to `base`.

Writes go to a temp file in the same directory, are fsynced and then
atomically renamed, so concurrent batch jobs never observe a partial entry. An
entry that cannot be read back, or whose base is missing, unreadable or
changed, is a miss with a warning.
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
_DTYPES = {"features": "<f8", "labels": "<i8", "protected": "<i8", "weights": "<f8"}
_ITEM_BYTES = 8
_VECTORS = ("labels", "protected", "weights")


def cache_key(dataset_key, method_name, params, seed) -> str:
    """Hash of (dataset key, method, parameters, seed); hex, stable across runs."""
    blob = canonical_json({"dataset": str(dataset_key), "method": str(method_name),
                           "params": params or {}, "seed": int(seed)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def content_key(ds: TabularDataset) -> str:
    """sha256 of the dataset's full cache entry bytes; the key of an original dataset."""
    return hashlib.sha256(dumps(ds)).hexdigest()


def cache_path(cache_root, key) -> Path:
    return Path(cache_root) / f"{key}.fpds"


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def dumps(ds: TabularDataset, base=None) -> bytes:
    """The entry bytes of `ds`: in full, or as a delta on `base=(base_ds, base_key)`
    when `ds` has base_ds's n and feature names."""
    arrays = {name: np.ascontiguousarray(getattr(ds, name), dtype=dtype) for name, dtype in _DTYPES.items()}
    header = {"version": VERSION, "n": ds.n, "provenance": ds.provenance}
    if base is not None and base[0].n == ds.n and base[0].feature_names == ds.feature_names:
        base_ds, header["base"] = base
        columns = np.flatnonzero((_bits(arrays["features"]) != _bits(base_ds.features)).any(axis=0))
        stored = [name for name in _VECTORS if (_bits(arrays[name]) != _bits(getattr(base_ds, name))).any()]
        header.update(columns=columns.tolist(), arrays=stored)
        arrays = {"features": arrays["features"][:, columns], **{name: arrays[name] for name in stored}}
    else:
        header.update(d=ds.dim, feature_names=list(ds.feature_names))
    head = canonical_json(header).encode("utf-8")
    return b"".join([MAGIC, _HEADER_LEN.pack(len(head)), head, *(a.tobytes() for a in arrays.values())])


def loads(blob: bytes, base_of=None) -> TabularDataset:
    """Parse one entry; a wrong magic, version, layout or length raises DataFormatError.

    A delta entry is rebuilt on `base_of(base_key)`, the dataset its header
    names; without `base_of` it is a DataFormatError.
    """
    if blob[:len(MAGIC)] != MAGIC:
        raise DataFormatError("not a binary dataset cache entry (bad magic)")
    start = len(MAGIC) + _HEADER_LEN.size
    if len(blob) < start:
        raise DataFormatError(f"cache entry truncated at {len(blob)} bytes")
    (header_len,) = _HEADER_LEN.unpack_from(blob, len(MAGIC))
    try:
        header = json.loads(blob[start:start + header_len])
        version, n, provenance = header["version"], int(header["n"]), str(header["provenance"])
        delta = "base" in header
        if delta:
            base_key, columns, vectors = str(header["base"]), list(header["columns"]), tuple(header["arrays"])
        else:
            width, names, vectors = int(header["d"]), tuple(header["feature_names"]), _VECTORS
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"corrupt cache entry header: {exc!r}") from exc
    if version != VERSION:
        raise DataFormatError(f"unsupported cache version {version!r}")
    if delta:
        if base_of is None:
            raise DataFormatError(f"delta entry on {base_key} read without its base")
        base = base_of(base_key)
        in_range = {c for c in columns if type(c) is int and 0 <= c < base.dim}
        if n != base.n or columns != sorted(in_range) or vectors != tuple(v for v in _VECTORS if v in vectors):
            raise DataFormatError(f"delta entry does not fit its base {base_key}")
        width, names = len(columns), base.feature_names
    offset = start + header_len
    expected = offset + _ITEM_BYTES * n * (width + len(vectors))
    if n < 1 or (width < 1 and not delta) or len(blob) != expected:
        raise DataFormatError(f"cache entry has {len(blob)} bytes, expected {expected} for n={n}, "
                              f"{width} stored columns")
    arrays = {}
    for name, count in (("features", n * width), *((v, n) for v in vectors)):
        arrays[name] = np.frombuffer(blob, dtype=_DTYPES[name], count=count, offset=offset)
        offset += _ITEM_BYTES * count
    features = arrays.pop("features").reshape(n, width)
    if delta:
        features, stored = base.features.copy(), features
        features[:, columns] = stored
        arrays = {name: arrays.get(name, getattr(base, name)) for name in _VECTORS}
    return TabularDataset(features, arrays["labels"], arrays["protected"], arrays["weights"], names, provenance)


# temp files of the entries this process is writing, for remove_partial_writes
_WRITING = set()


def _write(blob: bytes, key: str, cache_root) -> Path:
    root = Path(cache_root)
    root.mkdir(parents=True, exist_ok=True)
    target = cache_path(root, key)
    fd, tmp = tempfile.mkstemp(dir=root, prefix=".fpds-", suffix=".tmp")
    _WRITING.add(tmp)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
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


def cache_store(ds: TabularDataset, key: str, cache_root, base=None) -> Path:
    """Write atomically, as a delta on `base=(base_ds, base_key)` where `dumps` can;
    storing twice under one key leaves a single entry (last wins)."""
    return _write(dumps(ds, base), key, cache_root)


def store_original(ds: TabularDataset, cache_root) -> str:
    """Serialize `ds` once, key it on those bytes and make its entry hold exactly them.

    A missing entry is written; an entry whose bytes differ is rewritten, with
    a FairbenchWarning naming the file.
    """
    blob = dumps(ds)
    key = hashlib.sha256(blob).hexdigest()
    target = cache_path(cache_root, key)
    try:
        if target.read_bytes() == blob:
            return key
        warnings.warn(f"rewriting cache entry {target}: its bytes differ from the dataset they key",
                      FairbenchWarning)
    except FileNotFoundError:
        pass
    _write(blob, key, cache_root)
    return key


def remove_partial_writes():
    """Delete the temp files of the entries this process is writing, before it exits mid-write."""
    for tmp in list(_WRITING):
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # renamed into place just now
            pass


def _read_base(key: str, cache_root) -> TabularDataset:
    """The full entry under `key`, after checking that its bytes still hash to `key`."""
    target = cache_path(cache_root, key)
    try:
        blob = target.read_bytes()
    except OSError as exc:
        raise DataFormatError(f"its base entry {target} is unreadable: {exc}") from exc
    if hashlib.sha256(blob).hexdigest() != key:
        raise DataFormatError(f"its base entry {target} no longer hashes to its key")
    return loads(blob)


def cache_load(key: str, cache_root, original: bool = False):
    """Return the cached dataset, or None on a miss.

    An absent entry is a silent miss; a truncated, corrupt or old-format entry,
    or a delta entry whose base is missing, unreadable or changed, is a miss
    with a FairbenchWarning naming the file, so the caller recomputes and
    rewrites it. `original=True` says `key` is the entry's content key: an
    entry whose bytes no longer hash to it is such a miss too.
    """
    target = cache_path(cache_root, key)
    try:
        blob = target.read_bytes()
    except FileNotFoundError:
        return None
    try:
        if original and hashlib.sha256(blob).hexdigest() != key:
            raise DataFormatError("its bytes no longer hash to its key")
        return loads(blob, lambda base_key: _read_base(base_key, cache_root))
    except FairbenchError as exc:
        warnings.warn(f"ignoring unreadable cache entry {target}: {exc}", FairbenchWarning)
        return None
