"""Dataset schema: column roles, label/protected mappings, binarization rules.

A schema YAML document describes one dataset (see `load_schema`). Its
`sensitive_options` block declares each sensitive attribute as
`<attribute>: {column, privileged: [...]}`; the default attribute is
`default_sensitive`, else the first declared, and must be declared.
Materializing the schema picks exactly one attribute, so every
`DatasetSchema` instance has a single protected column and privileged value
set. A block that lacks a key it needs is a SchemaError reading
`<where> lacks [...]`.
"""

import functools
import operator
from dataclasses import dataclass, field

from ..errors import SchemaError
from ..util import boolean, listing, mapping, yaml_document

_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_PREDICATE_OPS = (*_COMPARISONS, "==", "in", "default")
_SCHEMA_KEYS = (
    "name", "label", "sensitive_options", "default_sensitive",
    "features", "drop", "binarize", "missing", "categories",
    "keep_protected_in_features",
)


def _cell_key(value):
    """Canonical comparison key for a raw cell or schema value: numeric when parseable, else stripped text."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    text = str(value).strip()
    try:
        return float(text)
    except ValueError:
        return text


def cells_match(a, b) -> bool:
    """True when two raw cells denote the same value ('1' matches 1, ' M ' matches 'M')."""
    return _cell_key(a) == _cell_key(b)


@dataclass(frozen=True)
class BinarizationRule:
    """First-match rewrite rule: predicate over `source` cell -> output value in `column`.

    `column` may equal `source` (in-place recode) or name a derived column.
    """

    column: str
    source: str
    op: str
    value: object
    output: str

    def matches(self, cell) -> bool:
        if self.op == "default":
            return True
        if self.op == "in":
            return any(cells_match(cell, v) for v in self.value)
        if self.op == "==":
            return cells_match(cell, self.value)
        key = _cell_key(cell)
        return isinstance(key, float) and _COMPARISONS[self.op](key, float(self.value))


@dataclass(frozen=True)
class DatasetSchema:
    name: str
    label_column: str
    favorable_value: object
    protected_column: str
    privileged_values: frozenset
    numeric_columns: frozenset
    categorical_columns: frozenset
    drop_columns: frozenset = frozenset()
    binarize: tuple = ()
    missing_tokens: frozenset = frozenset()
    drop_missing_rows: bool = False
    categories: dict = field(default_factory=dict)
    keep_protected_in_features: bool = False
    sensitive_attribute: str = ""

    def __post_init__(self):
        if not self.name:
            raise SchemaError("schema name missing")
        if not self.label_column:
            raise SchemaError(f"{self.name}: label column missing")
        if not self.protected_column:
            raise SchemaError(f"{self.name}: protected column missing")
        overlap = (
            (self.numeric_columns & self.categorical_columns)
            | (self.numeric_columns & self.drop_columns)
            | (self.categorical_columns & self.drop_columns)
        )
        if overlap:
            raise SchemaError(f"{self.name}: columns with conflicting roles: {sorted(overlap)}")
        feature_cols = set(self.numeric_columns | self.categorical_columns) - set(self.drop_columns)
        if not self.keep_protected_in_features:
            feature_cols -= {self.protected_column}
        if not feature_cols:
            raise SchemaError(f"{self.name}: no feature columns remain after drops")
        for col, levels in self.categories.items():
            repeated = [lv for k, lv in enumerate(levels) if lv in levels[:k]]
            if repeated:
                # a repeated level would name two one-hot columns alike and leave the first all zero
                raise SchemaError(f"{self.name}: categories.{col} repeats the level {repeated[0]!r}")
        if not self.sensitive_attribute:
            object.__setattr__(self, "sensitive_attribute", self.protected_column)

    def derived_columns(self):
        return {r.column for r in self.binarize if r.column != r.source}

    def referenced_columns(self):
        """Columns the raw table must provide (derived binarization outputs excluded)."""
        cols = {self.label_column, self.protected_column}
        cols |= set(self.numeric_columns) | set(self.categorical_columns) | set(self.drop_columns)
        cols |= {r.source for r in self.binarize}
        return cols - self.derived_columns()


def _parse_rules(column, source, raw_rules, where):
    rules = []
    for i, entry in enumerate(raw_rules):
        entry = mapping(entry, f"{where}[{i}]", ("when", "value"), needs=("when", "value"))
        when, output = str(entry["when"]).strip(), str(entry["value"]).strip()
        if when == "default":
            rules.append(BinarizationRule(column, source, "default", None, output))
            continue
        parts = when.split(None, 1)
        if len(parts) != 2 or parts[0] not in _PREDICATE_OPS:
            raise SchemaError(f"{where}[{i}]: bad predicate {when!r} (ops: {', '.join(_PREDICATE_OPS)})")
        op, arg = parts
        if op == "in":
            values = [v.strip() for v in arg.strip("[] ").split(",") if v.strip()]
            if not values:
                raise SchemaError(f"{where}[{i}]: empty 'in' list")
            rules.append(BinarizationRule(column, source, op, tuple(values), output))
            continue
        if op != "==" and isinstance(_cell_key(arg), str):
            raise SchemaError(f"{where}[{i}]: {op!r} needs a number, got {arg!r}")
        rules.append(BinarizationRule(column, source, op, arg, output))
    return rules


def _attributes(doc: dict, source: str) -> dict:
    """Declared attribute -> (column, privileged values), the default attribute first.

    The default is `default_sensitive`, else the first declared attribute;
    an absent or empty `sensitive_options`, an option that lacks `column` or
    `privileged`, or a default that names no declared attribute is a SchemaError.
    """
    options = mapping(doc.get("sensitive_options"), f"{source}: sensitive_options")
    if not options:
        raise SchemaError(f"{source}: sensitive_options declares no attribute")
    declared = {}
    for attr, blk in options.items():
        where = f"{source}: sensitive_options.{attr}"
        blk = mapping(blk, where, ("column", "privileged"), needs=("column", "privileged"))
        declared[str(attr)] = (str(blk["column"]),
                               frozenset(str(v) for v in listing(blk["privileged"], f"{where}.privileged")))
    default = str(doc.get("default_sensitive") or next(iter(declared)))
    if default not in declared:
        raise SchemaError(f"{source}: default_sensitive {default!r} not declared (have {sorted(declared)})")
    return {default: declared[default], **declared}


def schema_from_dict(doc: dict, sensitive: str = None, source: str = "<schema>") -> DatasetSchema:
    """Materialize a DatasetSchema from a parsed YAML document.

    `sensitive` picks one attribute of `sensitive_options`; the default is
    the document's `default_sensitive`, else its first declared attribute.
    The default is checked on every path, so a `default_sensitive` that names
    no declared attribute is a SchemaError even when `sensitive` is given.
    """
    doc = mapping(doc, source, _SCHEMA_KEYS, required=True, needs=("name",))
    label = mapping(doc.get("label"), f"{source}: label", ("column", "favorable"), needs=("column", "favorable"))

    options = _attributes(doc, source)
    chosen = sensitive or next(iter(options))
    if chosen not in options:
        raise SchemaError(
            f"{source}: sensitive attribute {chosen!r} not declared (have {sorted(options)})"
        )
    protected_column, privileged = options[chosen]

    features = mapping(doc.get("features"), f"{source}: features", ("numeric", "categorical"))
    numeric = frozenset(str(c) for c in listing(features.get("numeric"), f"{source}: features.numeric"))
    categorical = frozenset(str(c) for c in listing(features.get("categorical"), f"{source}: features.categorical"))

    rules = []
    for j, blk_rule in enumerate(listing(doc.get("binarize"), f"{source}: binarize")):
        blk_rule = mapping(blk_rule, f"{source}: binarize[{j}]", ("column", "from", "rules"), needs=("column",))
        col = blk_rule["column"]
        src = str(blk_rule.get("from", col))
        where = f"{source}: binarize[{j}].rules"
        rules.extend(_parse_rules(str(col), src, listing(blk_rule.get("rules"), where), where))

    missing = mapping(doc.get("missing"), f"{source}: missing", ("tokens", "drop_rows"))
    # levels are pinned for categorical columns only; encode ignores any other
    categories = mapping(doc.get("categories"), f"{source}: categories", categorical)

    return DatasetSchema(
        name=str(doc["name"]),
        label_column=str(label["column"]),
        favorable_value=label["favorable"],
        protected_column=protected_column,
        privileged_values=privileged,
        numeric_columns=numeric,
        categorical_columns=categorical,
        drop_columns=frozenset(str(c) for c in listing(doc.get("drop"), f"{source}: drop")),
        binarize=tuple(rules),
        missing_tokens=frozenset(str(t) for t in listing(missing.get("tokens"), f"{source}: missing.tokens")),
        drop_missing_rows=boolean(missing.get("drop_rows", False), f"{source}: missing.drop_rows"),
        categories={
            str(k): [str(v) for v in listing(vals, f"{source}: categories.{k}")] for k, vals in categories.items()
        },
        keep_protected_in_features=boolean(doc.get("keep_protected_in_features", False),
                                           f"{source}: keep_protected_in_features"),
        sensitive_attribute=chosen,
    )


def _read_schema(path) -> dict:
    """The YAML mapping of a schema file; invalid YAML or another document type is a SchemaError.

    The file is read every time but parsed once per (path, bytes) in a
    process; callers must not mutate the shared mapping.
    """
    with open(path, "rb") as fh:
        return _parse_schema(str(path), fh.read())


@functools.lru_cache(maxsize=64)
def _parse_schema(path: str, blob: bytes) -> dict:
    return mapping(yaml_document(blob, path), f"{path}: schema document", required=True)


def load_schema(path, sensitive: str = None) -> DatasetSchema:
    """Load a dataset schema YAML file; `sensitive` picks a declared attribute option."""
    return schema_from_dict(_read_schema(path), sensitive=sensitive, source=str(path))


def declared_sensitive_attributes(path):
    """Attribute names a schema file declares, the one `load_schema` picks by default first.

    A schema whose YAML, document type or attribute declarations `load_schema`
    rejects is a SchemaError here too, with the same message.
    """
    return list(_attributes(_read_schema(path), str(path)))
