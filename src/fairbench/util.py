"""Small shared helpers."""

import dataclasses
import json
import math

import yaml

from .errors import SchemaError


def canonical_json(obj) -> str:
    """Deterministic JSON serialization (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _at(mark):
    return f"line {mark.line + 1}, column {mark.column + 1}"


def yaml_document(text, where):
    """The YAML document in `text` (str or bytes).

    Invalid YAML is a one-line SchemaError, `<where>: invalid YAML: <problem>
    at line L, column C`, then, when PyYAML gives it, what was being parsed
    and where it began: an unclosed bracket is found at the end of the text.
    """
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        if getattr(exc, "problem_mark", None) is None:  # a decoding error, with no mark
            problem = " ".join(str(exc).split())
        else:
            problem = f"{exc.problem} at {_at(exc.problem_mark)}"
            if exc.context_mark is not None:
                problem += f" ({exc.context} at {_at(exc.context_mark)})"
        raise SchemaError(f"{where}: invalid YAML: {problem}") from None


# Every shape or kind error reads `<where> must be <kind>, got <type or value>`.


def _got(value):
    """A value's type name, or the value itself when it is empty or None."""
    return type(value).__name__ if value else repr(value)


def mapping(value, where, keys=None, required=False, needs=()):
    """`value` as a mapping, {} when absent unless `required`.

    Another YAML type, a key outside `keys`, or a lack of a key of `needs`, is a SchemaError naming `where`.
    """
    if value is None and not required:
        value = {}
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be a mapping, got {_got(value)}")
    if keys is not None and not set(value) <= set(keys):
        unknown = sorted(set(value) - set(keys), key=str)  # YAML keys may mix strings and numbers
        raise SchemaError(f"{where}: unknown keys {unknown} (accepts {sorted(keys)})")
    missing = [key for key in needs if key not in value]
    if missing:
        raise SchemaError(f"{where} lacks {missing}")
    return value


def listing(value, where, required=False):
    """`value` as a list, [] when absent unless `required`, which also rejects an empty list.

    A string or another YAML type is a SchemaError naming `where`.
    """
    if value is None and not required:
        return []
    if not isinstance(value, (list, tuple)) or (required and not value):
        raise SchemaError(f"{where} must be {'a non-empty list' if required else 'a list'}, got {_got(value)}")
    return value


def string(value, where):
    """`value` if it is a YAML string; a list, mapping or number is a SchemaError naming `where`."""
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string, got {_got(value)}")
    return value


def integer(value, key, least=None):
    """`value` if an integer (>= `least` if given); YAML booleans, floats and strings are a SchemaError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{key} must be an integer, got {value!r}")
    return value if least is None else within(value, key, least=least)


def number(value, key):
    """`value` as a float if it is a YAML integer or float; booleans and strings are a SchemaError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{key} must be a number, got {value!r}")
    return float(value)


def boolean(value, key):
    """`value` if it is a YAML boolean; a quoted "false", a number or None is a SchemaError naming `key`."""
    if not isinstance(value, bool):
        raise SchemaError(f"{key} must be true or false, got {value!r}")
    return value


def _names(value, key):
    """A list of column names as a tuple; None (every column) passes through."""
    if value is not None and not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise SchemaError(f"{key} must be a list of column names, got {value!r}")
    return None if value is None else tuple(value)


def seed_value(value, key):
    """`value` if it is a seed: an integer >= 0, as numpy's generators take; else a SchemaError naming `key`."""
    return integer(value, key, least=0)


def _interval(least, above, most, below):
    """`within`'s interval in words: `>= 2`, `positive`, `non-negative and finite`, `in [0,1]`, `in (0,1)`."""
    if most is None and below in (None, math.inf):
        low = f">= {least}" if above is None else f"> {above}"
        return {">= 0": "non-negative", "> 0": "positive"}.get(low, low) + (" and finite" if below else "")
    opening, low = ("[", least) if above is None else ("(", above)
    closing, high = ("]", most) if below is None else (")", below)
    return f"in {opening}{low},{high}{closing}"


def within(value, key, error=SchemaError, least=None, above=None, most=None, below=None):
    """`value` if it lies within the inclusive ends `least` and `most` and the exclusive ends `above` and `below`
    (`below=math.inf`: finite), as NaN never does; else an `error` reading `<key> must be <interval>, got <value>`."""
    if ((least is None or value >= least) and (above is None or value > above)
            and (most is None or value <= most) and (below is None or value < below)):
        return value
    raise error(f"{key} must be {_interval(least, above, most, below)}, got {value!r}")


def setting(default=dataclasses.MISSING, **bound):
    """A `Settings` field: its default, if any, and the interval, in `within`'s terms, that its value lies in."""
    return dataclasses.field(default=default, metadata={"bound": bound})


def _bounded(cls, values, prefix):
    """`values`, each of a `setting` field of `cls` checked by `within` under the key `<prefix><name>`."""
    for f in dataclasses.fields(cls):
        if "bound" in f.metadata and f.name in values:
            within(values[f.name], prefix + f.name, cls.bound_error, **f.metadata["bound"])
    return values


class Settings:
    """Base of a frozen dataclass whose `setting` fields are checked on construction, and by `from_mapping`
    under their key paths; a value out of its interval raises the class's `bound_error`."""

    bound_error = SchemaError

    def __post_init__(self):
        _bounded(type(self), vars(self), "")


# a field's kind is its type; a tuple field is an optional list of column names
_KINDS = {bool: boolean, int: integer, float: number, str: string, dict: mapping, tuple: _names}


def from_mapping(cls, doc, where):
    """Frozen dataclass `cls` from the mapping `doc`, each value checked by its field's type and bound.

    A field whose type is a dataclass is read the same way. An unknown key, a missing field without a default,
    or a value of the wrong kind is a SchemaError naming `where` and, for a value, `<where>.<name>`, as a value
    out of its `setting` interval is a `cls.bound_error`."""
    fields = dataclasses.fields(cls)
    doc = mapping(doc, where, [f.name for f in fields],
                  needs=[f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING])
    values = {f.name: from_mapping(f.type, doc[f.name], f"{where}.{f.name}") if dataclasses.is_dataclass(f.type)
              else _KINDS[f.type](doc[f.name], f"{where}.{f.name}") for f in fields if f.name in doc}
    return cls(**_bounded(cls, values, f"{where}."))
