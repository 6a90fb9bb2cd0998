"""Small shared helpers."""

import dataclasses
import hashlib
import json

from .errors import SchemaError


def canonical_json(obj) -> str:
    """Deterministic JSON serialization (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary string/int parts."""
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def integer(value, key):
    """`value` if it is an integer; YAML booleans, floats and strings are a SchemaError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{key}: must be an integer, got {value!r}")
    return value


def number(value, key):
    """`value` as a float if it is a YAML integer or float; booleans and strings are a SchemaError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{key}: must be a number, got {value!r}")
    return float(value)


def _boolean(value, key):
    if not isinstance(value, bool):
        raise SchemaError(f"{key}: must be true or false, got {value!r}")
    return value


def _names(value, key):
    """A list of column names as a tuple; None (every column) passes through."""
    if value is not None and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise SchemaError(f"{key}: must be a list of column names, got {value!r}")
    return None if value is None else tuple(value)


# a parameter's kind is its default's type; a None default is an optional
# list of column names
_KINDS = {bool: _boolean, int: integer, float: number, type(None): _names}


def checked_params(params, defaults, owner):
    """`defaults` updated by `params`, each value checked against its default's kind.

    An unknown name or a value of the wrong kind is a SchemaError naming `owner`
    and, for a value, `<owner>.<name>`.
    """
    params = dict(params or {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise SchemaError(f"{owner}: unknown parameter(s) {sorted(unknown)} (accepts {sorted(defaults)})")
    checked = dict(defaults)
    for name, value in params.items():
        checked[name] = _KINDS[type(defaults[name])](value, f"{owner}.{name}")
    return checked


def config_from(cls, params, owner):
    """Config dataclass `cls` from checked `params`; its field defaults give each parameter's kind."""
    return cls(**checked_params(params, {f.name: f.default for f in dataclasses.fields(cls)}, owner))
