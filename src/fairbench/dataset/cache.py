"""Content-addressed dataset cache.

Entries are binary files (`<cache_root>/<hex key>.fpds`): an 8-byte magic, the
byte length of a JSON header, the header, then the stored arrays.

Each stored array (a feature column, labels, protected or weights; n values)
is written in whichever form is smaller: its raw little-endian values, or its
k distinct values, sorted by their uint64 bits, followed by one code per row
(uint8 when k <= 256, else uint16) that indexes them. The header's `tables`
gives k for each stored array in body order, 0 for raw. Values are compared
as bits, so 0.0 and -0.0 are distinct and a round-trip is bit-identical; a
code at or past the end of its table makes the entry corrupt.

A full entry's header holds the version, n, d, feature names and provenance;
its body holds every feature column, then labels and protected (int64) and
weights (float64). An original dataset is keyed on the sha256 of its
canonical dense form: a version-2 full entry, which is the same header with
version 2, then the features (n x d float64, row-major), labels, protected
and weights as raw arrays. That form is hashed from the arrays, not written
out. A hit therefore means the same arrays, names and provenance, the
protected column included, and reading an original checks its decoded
content against its key. A processed dataset is keyed on (original key,
method, parameters, seed).

A processed dataset is stored as a delta entry on its original. The header
names the original's key as `base` and lists the feature `columns` and the
`arrays` whose bits differ from the base; the body holds only those. A
dataset whose n or feature names differ from the base's is stored in full.
Loading a delta entry rebuilds it on the base dataset the caller holds, or
else on the base entry, after checking that its content still hashes to
`base`.

Writes go to a temp file in the same directory, are fsynced and then
atomically renamed, so concurrent batch jobs never observe a partial entry. An
entry that exists but cannot be read back, or whose base is missing,
unreadable or changed, is a miss with a warning.
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
VERSION = 3
# the version whose full entries are the canonical dense form that keys an original
_DENSE_VERSION = 2
_HEADER_LEN = struct.Struct("<Q")
_DTYPES = {"features": "<f8", "labels": "<i8", "protected": "<i8", "weights": "<f8"}
_ITEM_BYTES = 8
_VECTORS = ("labels", "protected", "weights")
# a table of k values is indexed by uint8 codes up to k = 256, by uint16 codes up to _MAX_TABLE
_CODES = (np.dtype("<u1"), np.dtype("<u2"))
_MAX_TABLE = 1 << 16


def cache_key(dataset_key, method_name, params, seed) -> str:
    """Hash of (dataset key, method, parameters, seed); hex, stable across runs."""
    blob = canonical_json({"dataset": str(dataset_key), "method": str(method_name),
                           "params": params or {}, "seed": int(seed)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _full_header(ds: TabularDataset, version) -> dict:
    return {"version": version, "n": ds.n, "provenance": ds.provenance, "d": ds.dim,
            "feature_names": list(ds.feature_names)}


def _head(header) -> bytes:
    head = canonical_json(header).encode("utf-8")
    return MAGIC + _HEADER_LEN.pack(len(head)) + head


def content_key(ds: TabularDataset) -> str:
    """sha256 of the dataset's canonical dense form; the key of an original dataset."""
    digest = hashlib.sha256(_head(_full_header(ds, _DENSE_VERSION)))
    for name, dtype in _DTYPES.items():
        digest.update(np.ascontiguousarray(getattr(ds, name), dtype=dtype))
    return digest.hexdigest()


def cache_path(cache_root, key) -> Path:
    return Path(cache_root) / f"{key}.fpds"


def _bits(values):
    return np.ascontiguousarray(values).view("<u8")


def _code_dtype(k):
    return _CODES[k > 256]


def _stored_bytes(k, n):
    """Body bytes of n values stored raw (k=0) or as a table of k values and their codes."""
    return _ITEM_BYTES * n if k == 0 else _ITEM_BYTES * k + _code_dtype(k).itemsize * n


def _compact(columns):
    """(tables, parts): each uint64 array of `columns`, one stored array, in its smaller form.

    tables[j] is the array's table size, 0 when it is stored raw; parts are the body bytes.
    """
    tables, parts = [], []
    for column in columns:
        ordered = np.sort(column)
        table = ordered[np.concatenate([[True], ordered[1:] != ordered[:-1]])]
        k = len(table)
        if k > _MAX_TABLE or _stored_bytes(k, len(column)) >= _stored_bytes(0, len(column)):
            tables.append(0)
            parts.append(column.tobytes())
        else:
            tables.append(k)
            parts += [table.tobytes(), np.searchsorted(table, column).astype(_code_dtype(k)).tobytes()]
    return tables, parts


def dumps(ds: TabularDataset, base=None) -> bytes:
    """The entry bytes of `ds`: in full, or as a delta on `base=(base_ds, base_key)`
    when `ds` has base_ds's n and feature names."""
    arrays = {name: np.ascontiguousarray(getattr(ds, name), dtype=dtype) for name, dtype in _DTYPES.items()}
    bits = _bits(arrays["features"])
    columns, vectors = range(ds.dim), _VECTORS
    if base is not None and base[0].n == ds.n and base[0].feature_names == ds.feature_names:
        base_ds, base_key = base
        columns = np.flatnonzero((bits != _bits(base_ds.features)).any(axis=0))
        vectors = [name for name in _VECTORS if (_bits(arrays[name]) != _bits(getattr(base_ds, name))).any()]
        header = {"version": VERSION, "n": ds.n, "provenance": ds.provenance, "base": base_key,
                  "columns": columns.tolist(), "arrays": vectors}
    else:
        header = _full_header(ds, VERSION)
    # one column at a time, so no copy of the matrix is made
    header["tables"], parts = _compact([*(bits[:, j] for j in columns), *(_bits(arrays[name]) for name in vectors)])
    return b"".join([_head(header), *parts])


def loads(blob: bytes, base_of=None) -> TabularDataset:
    """Parse one entry; a wrong magic, version, layout, length or code raises DataFormatError.

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
        if header["version"] != VERSION:
            raise DataFormatError(f"unsupported cache version {header['version']!r}")
        n, provenance = int(header["n"]), str(header["provenance"])
        delta = "base" in header
        if delta:
            base_key, columns, vectors = str(header["base"]), list(header["columns"]), tuple(header["arrays"])
        else:
            width, names, vectors = int(header["d"]), tuple(header["feature_names"]), _VECTORS
        tables = list(header["tables"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"corrupt cache entry header: {exc!r}") from exc
    if delta:
        if base_of is None:
            raise DataFormatError(f"delta entry on {base_key} read without its base")
        base = base_of(base_key)
        in_range = {c for c in columns if type(c) is int and 0 <= c < base.dim}
        if n != base.n or columns != sorted(in_range) or vectors != tuple(v for v in _VECTORS if v in vectors):
            raise DataFormatError(f"delta entry does not fit its base {base_key}")
        width, names = len(columns), base.feature_names
    kinds = ["features"] * width + list(vectors)
    if len(tables) != len(kinds) or not all(type(k) is int and 0 <= k <= _MAX_TABLE for k in tables):
        raise DataFormatError(f"corrupt cache entry header: tables {tables!r} for {len(kinds)} stored arrays")
    offset = start + header_len
    expected = offset + sum(_stored_bytes(k, n) for k in tables)
    if n < 1 or (width < 1 and not delta) or len(blob) != expected:
        raise DataFormatError(f"cache entry has {len(blob)} bytes, expected {expected} for n={n}, "
                              f"{width} stored columns")
    stored = []
    for k, kind in zip(tables, kinds):
        values = np.frombuffer(blob, dtype=_DTYPES[kind], count=k or n, offset=offset)
        offset += values.nbytes
        codes = None
        if k:
            values = values.copy()  # aligned, for the lookups
            codes = np.frombuffer(blob, dtype=_code_dtype(k), count=n, offset=offset)
            offset += codes.nbytes
            if codes.max() >= k:
                raise DataFormatError(f"cache entry has a code past the end of its {k}-value table")
        stored.append((values, codes))
    features = base.features.copy() if delta else np.empty((n, width), dtype=_DTYPES["features"])
    # each column decoded in place, so no second matrix is allocated
    for j, (values, codes) in zip(columns if delta else range(width), stored[:width]):
        if codes is None:
            features[:, j] = values
        else:
            np.take(values, codes, out=features[:, j], mode="clip")
    arrays = {name: values if codes is None else values[codes]
              for name, (values, codes) in zip(vectors, stored[width:])}
    if delta:
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


def _read(target: Path):
    """The bytes of `target`, or None when it is absent; one that exists but cannot be read is a DataFormatError."""
    try:
        return target.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise DataFormatError(f"it cannot be read: {exc}") from exc


def store_original(ds: TabularDataset, cache_root) -> str:
    """Key `ds` on its content and make its entry hold exactly `dumps(ds)`.

    A missing entry is written; an entry whose bytes differ is rewritten, with
    a FairbenchWarning naming the file: either format version 2 wrote it, or
    it was changed.
    """
    key, blob = content_key(ds), dumps(ds)
    target = cache_path(cache_root, key)
    try:
        stored = _read(target)
        if stored == blob:
            return key
        if stored is not None:
            # a version-2 entry of `ds` is its canonical dense form, which hashes to its key
            why = ("format version 2 wrote it" if hashlib.sha256(stored).hexdigest() == key
                   else "its bytes differ from the dataset they key")
            warnings.warn(f"rewriting cache entry {target}: {why}", FairbenchWarning)
    except DataFormatError as exc:
        warnings.warn(f"rewriting cache entry {target}: {exc}", FairbenchWarning)
    _write(blob, key, cache_root)
    return key


def remove_partial_writes():
    """Delete the temp files of the entries this process is writing, before it exits mid-write."""
    for tmp in list(_WRITING):
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # renamed into place just now
            pass


def cache_load(key: str, cache_root, original: bool = False, base=None):
    """Return the cached dataset, or None on a miss.

    An absent entry is a silent miss; an entry that exists but is unreadable,
    truncated, corrupt or of an older format, or a delta entry whose base is
    missing, unreadable or changed, is a miss with a FairbenchWarning naming
    the file, so the caller recomputes and rewrites it. `original=True` says
    `key` is the entry's content key: an entry whose decoded content no longer
    hashes to it is such a miss too. A delta entry on `base=(base_ds, base_key)`
    is rebuilt on base_ds; on any other base, on the base entry, read as an original.
    """
    def base_of(base_key):
        if base is not None and base_key == base[1]:
            return base[0]
        found = cache_load(base_key, cache_root, original=True)
        if found is None:
            raise DataFormatError(f"its base entry {cache_path(cache_root, base_key)} is missing or unreadable")
        return found

    target = cache_path(cache_root, key)
    try:
        blob = _read(target)
        if blob is None:
            return None
        ds = loads(blob, base_of)
        if original and content_key(ds) != key:
            raise DataFormatError("its bytes no longer hash to its key (read in dense form)")
        return ds
    except FairbenchError as exc:
        warnings.warn(f"ignoring unreadable cache entry {target}: {exc}", FairbenchWarning)
        return None
