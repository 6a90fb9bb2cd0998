"""Content-addressed cache of original datasets, and the stage-1 records kept beside them.

A dataset entry (`<cache_root>/<hex key>.fpds`) is an 8-byte magic, the byte
length of a JSON header, the header (version, n, d, feature names,
provenance), then every feature column, labels and protected (int64) and weights (float64).

Each stored array (n values) is written in whichever form is smaller: its raw
little-endian values, or its k distinct values, sorted by their uint64 bits,
followed by one code per row (uint8 when k <= 256, else uint16) that indexes
them. The header's `tables` gives k for each stored array in body order, 0 for
raw. Values are compared as bits, so 0.0 and -0.0 are distinct and a
round-trip is bit-identical; a code at or past the end of its table makes the
entry corrupt.

A dataset is keyed on the sha256 of its entry bytes, which `dumps` makes
canonical. A hit therefore means the same arrays, names, provenance and
format version, and every read checks the bytes against the key before it
parses them. A new format or `VERSION` re-keys every dataset and so every
record: an older cache is a silent miss.

A record (`<cache_root>/<hex key>.metrics.fpds`) is the same magic and header
framing with no body; the header holds the version, flat fields and the
sha256 of their canonical JSON. Stage 1 records the metrics of the dataset a
key names there, so a processed dataset itself is never stored.

Writes go to a temp file in the same directory, are fsynced and then
atomically renamed, so concurrent batch jobs never observe a partial entry. An
entry that exists but cannot be read, is of another version, or whose bytes
no longer hash to its key (or fields to their sha256, or are not the fields
its reader takes), is a miss with a warning.
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
_HEADER_LEN = struct.Struct("<Q")
_DTYPES = {"features": "<f8", "labels": "<i8", "protected": "<i8", "weights": "<f8"}
_ITEM_BYTES = 8
_VECTORS = ("labels", "protected", "weights")
# a table of k values is indexed by uint8 codes up to k = 256, by uint16 codes up to _MAX_TABLE
_CODES = (np.dtype("<u1"), np.dtype("<u2"))
_MAX_TABLE = 1 << 16


def cache_key(dataset_key, method_name, params, seed) -> str:
    """Hash of (dataset key, method, parameters, seed); hex, stable across runs. None is no seed."""
    blob = canonical_json({"dataset": str(dataset_key), "method": str(method_name),
                           "params": params or {}, "seed": None if seed is None else int(seed)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _head(header) -> bytes:
    head = canonical_json(header).encode("utf-8")
    return MAGIC + _HEADER_LEN.pack(len(head)) + head


def entry_key(entry: bytes) -> str:
    """The key of the entry bytes `entry`: their sha256, hex."""
    return hashlib.sha256(entry).hexdigest()


def cache_path(cache_root, key) -> Path:
    return Path(cache_root) / f"{key}.fpds"


def record_path(cache_root, key) -> Path:
    return Path(cache_root) / f"{key}.metrics.fpds"


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


def dumps(ds: TabularDataset) -> bytes:
    """The entry bytes of `ds`."""
    arrays = {name: np.ascontiguousarray(getattr(ds, name), dtype=dtype) for name, dtype in _DTYPES.items()}
    bits = _bits(arrays["features"])
    header = {"version": VERSION, "n": ds.n, "provenance": ds.provenance, "d": ds.dim,
              "feature_names": list(ds.feature_names)}
    # one column at a time, so no copy of the matrix is made
    header["tables"], parts = _compact([*(bits[:, j] for j in range(ds.dim)),
                                        *(_bits(arrays[name]) for name in _VECTORS)])
    return b"".join([_head(header), *parts])


def _parse_head(blob: bytes):
    """(header, body offset) of an entry or record; a wrong magic, header or version raises DataFormatError."""
    if blob[:len(MAGIC)] != MAGIC:
        raise DataFormatError("not a fairbench cache entry (bad magic)")
    start = len(MAGIC) + _HEADER_LEN.size
    if len(blob) < start:
        raise DataFormatError(f"cache entry truncated at {len(blob)} bytes")
    (header_len,) = _HEADER_LEN.unpack_from(blob, len(MAGIC))
    try:
        header = json.loads(blob[start:start + header_len])
        version = header["version"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"corrupt cache entry header: {exc!r}") from exc
    if version != VERSION:
        raise DataFormatError(f"unsupported cache version {version!r}")
    return header, start + header_len


def loads(blob: bytes) -> TabularDataset:
    """Parse one dataset entry; a wrong magic, version, layout, length or code raises DataFormatError."""
    header, offset = _parse_head(blob)
    try:
        n, provenance = int(header["n"]), str(header["provenance"])
        width, names = int(header["d"]), tuple(header["feature_names"])
        tables = list(header["tables"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"corrupt cache entry header: {exc!r}") from exc
    kinds = ["features"] * width + list(_VECTORS)
    if len(tables) != len(kinds) or not all(type(k) is int and 0 <= k <= _MAX_TABLE for k in tables):
        raise DataFormatError(f"corrupt cache entry header: tables {tables!r} for {len(kinds)} stored arrays")
    expected = offset + sum(_stored_bytes(k, n) for k in tables)
    if n < 1 or width < 1 or len(blob) != expected:
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
    features = np.empty((n, width), dtype=_DTYPES["features"])
    # each column decoded in place, so no second matrix is allocated
    for j, (values, codes) in enumerate(stored[:width]):
        if codes is None:
            features[:, j] = values
        else:
            np.take(values, codes, out=features[:, j], mode="clip")
    arrays = {name: values if codes is None else values[codes]
              for name, (values, codes) in zip(_VECTORS, stored[width:])}
    return TabularDataset(features, arrays["labels"], arrays["protected"], arrays["weights"], names, provenance)


def _digest(fields) -> str:
    return hashlib.sha256(canonical_json(fields).encode("utf-8")).hexdigest()


def _record_fields(blob: bytes) -> dict:
    """The fields of one record; a wrong magic, version or length, or fields off their sha256, raise DataFormatError."""
    header, offset = _parse_head(blob)
    if len(blob) != offset:
        raise DataFormatError(f"record has {len(blob)} bytes, expected {offset}")
    fields = header.get("fields")
    if not isinstance(fields, dict) or _digest(fields) != header.get("sha256"):
        raise DataFormatError("its fields no longer hash to its sha256")
    return fields


# temp files of the entries this process is writing, for remove_partial_writes
_WRITING = set()


def _write(blob: bytes, target: Path) -> Path:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".fpds-", suffix=".tmp")
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


def remove_partial_writes():
    """Delete the temp files of the entries this process is writing, before it exits mid-write."""
    for tmp in list(_WRITING):
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # renamed into place just now
            pass


def _read(target: Path, parse):
    """parse(the bytes of `target`), or None on a miss: silent when it is absent,
    with a FairbenchWarning naming it when it cannot be read or parsed."""
    try:
        return parse(target.read_bytes())
    except FileNotFoundError:
        return None
    except OSError as exc:
        problem = f"it cannot be read: {exc}"
    except FairbenchError as exc:
        problem = exc
    warnings.warn(f"ignoring unreadable cache entry {target}: {problem}", FairbenchWarning)
    return None


def cache_store(entry: bytes, key: str, cache_root) -> Path:
    """Write the entry bytes `entry` atomically under `key`; storing twice under one key leaves the last."""
    return _write(entry, cache_path(cache_root, key))


def _keyed(blob: bytes, ok: bool) -> bytes:
    if not ok:
        raise DataFormatError("its bytes no longer hash to its key")
    return blob


def cache_load(key: str, cache_root):
    """The dataset cached under `key`, or None on a miss.

    An absent entry is a silent miss. One that is unreadable, or whose bytes
    no longer hash to `key` (checked before they are parsed), is a miss with a
    FairbenchWarning naming the file, so the caller recomputes and rewrites it.
    """
    return _read(cache_path(cache_root, key), lambda blob: loads(_keyed(blob, entry_key(blob) == key)))


def cache_holds(entry: bytes, key: str, cache_root) -> bool:
    """Whether the file of `key`, the key of the entry bytes `entry`, holds them.

    Nothing is parsed; an entry that is absent, unreadable or holds other bytes is a miss as `cache_load`'s is."""
    return _read(cache_path(cache_root, key), lambda blob: _keyed(blob, blob == entry)) is not None


def record_store(fields: dict, key: str, cache_root) -> Path:
    """Write the record of `fields`, a flat mapping of JSON scalars, atomically under `key`.

    Floats are written as their shortest round-trip text, inf and nan as
    `Infinity` and `NaN`, so each reads back bit for bit.
    """
    return _write(_head({"version": VERSION, "fields": fields, "sha256": _digest(fields)}),
                  record_path(cache_root, key))


def record_load(key: str, cache_root, make):
    """make(the fields recorded under `key`), or None on a miss, warned as `cache_load`'s are.

    A FairbenchError from `make`, such as for fields other than the ones it takes, is a miss too."""
    return _read(record_path(cache_root, key), lambda blob: make(_record_fields(blob)))
