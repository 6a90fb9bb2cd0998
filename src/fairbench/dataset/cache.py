"""Content-addressed cache of original datasets, and the stage-1 records kept beside them.

A dataset entry (`<cache_root>/<hex key>.fpds`) is an 8-byte magic, the byte
length of a JSON header, the header (version, n, d, feature names,
provenance), then one zlib stream, written at level 1, of the features
(row-major float64), labels and protected (int64) and weights (float64),
little-endian: n * (d + 3) * 8 bytes once decompressed.

A dataset is keyed on the sha256 of its header bytes and its uncompressed
arrays, which `dumps` computes as it compresses them. A hit therefore means
the same arrays, names, provenance and format version, whichever zlib build
wrote the stream. Every read feeds zlib bounded slices of the stream and
decompresses bounded chunks into one buffer, hashing as it goes. It refuses
a corrupt stream, a body of other than n * (d + 3) * 8 bytes, data after the
stream's end, a header whose sizes no stream of the entry's length could
hold, and a hash other than the key, before it builds any array.
Preparation compares its entry bytes with the file's and reads the file only
when they differ, so another zlib build's stream of the same arrays is a hit.
A new `VERSION` re-keys every dataset and so every record: an older cache,
version 3 included, is a silent miss.

A record (`<cache_root>/<hex key>.metrics.fpds`) is the same magic and header
framing with no body; the header holds the version, flat fields and the
sha256 of their canonical JSON. Stage 1 records the metrics of the dataset a
key names there, so a processed dataset itself is never stored.

Writes go to a temp file in the same directory, are fsynced and then
atomically renamed, so concurrent batch jobs never observe a partial entry. An
entry that exists but cannot be read, is of another version, or whose content
no longer hashes to its key (or fields to their sha256, or are not the fields
its reader takes), is a miss with a warning.
"""

import hashlib
import json
import os
import struct
import tempfile
import warnings
import zlib
from pathlib import Path

import numpy as np

from ..errors import DataFormatError, FairbenchError, FairbenchWarning
from ..util import canonical_json
from .tabular import TabularDataset

MAGIC = b"FPDSBIN\n"
VERSION = 4
_HEADER_LEN = struct.Struct("<Q")
_DTYPES = {"features": "<f8", "labels": "<i8", "protected": "<i8", "weights": "<f8"}
_CHUNK = 1 << 20  # the most bytes a read decompresses at a time
_SLICE = 1 << 16  # the most stream bytes a read feeds zlib at a time, so no unconsumed tail copies the rest
_MAX_RATIO = 1032  # deflate stores at most 1032 bytes in each byte of its stream


def cache_key(dataset_key, method_name, params, seed) -> str:
    """Hash of (dataset key, method, parameters, seed); hex, stable across runs. None is no seed."""
    blob = canonical_json({"dataset": str(dataset_key), "method": str(method_name),
                           "params": params or {}, "seed": None if seed is None else int(seed)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _head(header) -> bytes:
    head = canonical_json(header).encode("utf-8")
    return MAGIC + _HEADER_LEN.pack(len(head)) + head


def cache_path(cache_root, key) -> Path:
    return Path(cache_root) / f"{key}.fpds"


def record_path(cache_root, key) -> Path:
    return Path(cache_root) / f"{key}.metrics.fpds"


def dumps(ds: TabularDataset):
    """(key, entry bytes) of `ds`: the key is the sha256 of the header and the uncompressed arrays, hex."""
    head = _head({"version": VERSION, "n": ds.n, "provenance": ds.provenance, "d": ds.dim,
                  "feature_names": list(ds.feature_names)})
    digest, stream, parts = hashlib.sha256(head), zlib.compressobj(1), [head]
    for name, dtype in _DTYPES.items():
        # hashed and compressed through a view, so no joined copy of the arrays is made
        data = memoryview(np.ascontiguousarray(getattr(ds, name), dtype=dtype)).cast("B")
        digest.update(data)
        parts.append(stream.compress(data))
    parts.append(stream.flush())
    return digest.hexdigest(), b"".join(parts)


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


def _inflate(blob, offset, size, digest):
    """The n * (d + 3) * 8 = `size` body bytes of the stream at `offset`, as uint8, hashed into `digest`.

    A corrupt stream, a body of another length or data after the stream raises DataFormatError."""
    body, stream = np.empty(size, dtype=np.uint8), zlib.decompressobj()
    view, filled, pending = memoryview(blob), 0, b""
    try:
        while not stream.eof:
            if not pending:
                pending, offset = view[offset:offset + _SLICE], min(offset + _SLICE, len(blob))
            chunk = stream.decompress(pending, _CHUNK)
            pending = stream.unconsumed_tail
            if not (chunk or pending or stream.eof) and offset == len(blob):
                raise DataFormatError("cache entry stream ends early")
            if len(chunk) > size - filled:
                raise DataFormatError(f"cache entry body runs past the {size} bytes its header gives")
            body[filled:filled + len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
            digest.update(chunk)
            filled += len(chunk)
    except zlib.error as exc:
        raise DataFormatError(f"corrupt cache entry stream: {exc}") from exc
    if filled != size:
        raise DataFormatError(f"cache entry body has {filled} bytes, expected the {size} its header gives")
    after = len(stream.unused_data) + len(blob) - offset
    if after:
        raise DataFormatError(f"cache entry has {after} bytes after its stream")
    return body


def loads(blob: bytes, key: str) -> TabularDataset:
    """Parse one dataset entry whose key is `key`.

    A wrong magic, version or header, a stream that is corrupt, of another
    length or followed by data, or content that does not hash to `key`
    raises DataFormatError before any array is built.
    """
    header, offset = _parse_head(blob)
    try:
        n, provenance = int(header["n"]), str(header["provenance"])
        width, names = int(header["d"]), tuple(header["feature_names"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"corrupt cache entry header: {exc!r}") from exc
    size = n * (width + len(_DTYPES) - 1) * 8
    if n < 1 or width < 1 or size > _MAX_RATIO * (len(blob) - offset):
        raise DataFormatError(f"cache entry header gives n={n}, d={width}, which its "
                              f"{len(blob) - offset}-byte stream cannot hold")
    digest = hashlib.sha256(blob[:offset])
    body = _inflate(blob, offset, size, digest)
    if digest.hexdigest() != key:
        raise DataFormatError("its content no longer hashes to its key")
    features, labels, protected, weights = (part.view(dtype) for part, dtype in zip(
        np.split(body, np.cumsum([8 * n * width, 8 * n, 8 * n])), _DTYPES.values()))
    return TabularDataset(features.reshape(n, width), labels, protected, weights, names, provenance)


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


def cache_load(key: str, cache_root):
    """The dataset cached under `key`, or None on a miss.

    An absent entry is a silent miss. One that is unreadable, or that `loads`
    refuses, such as one whose content no longer hashes to `key`, is a miss
    with a FairbenchWarning naming the file, so the caller recomputes and rewrites it.
    """
    return _read(cache_path(cache_root, key), lambda blob: loads(blob, key))


def cache_holds(entry: bytes, key: str, cache_root) -> bool:
    """Whether the file of `key`, the key of the entry bytes `entry`, holds its dataset.

    Equal bytes are a hit with nothing parsed. Other bytes are read as
    `cache_load` reads them: the same arrays compressed by another zlib build
    are a hit, left in place, and anything `loads` refuses is a warned miss."""
    return _read(cache_path(cache_root, key), lambda blob: blob == entry or loads(blob, key)) is not None


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
