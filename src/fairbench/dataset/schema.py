"""Dataset schema: column roles, label/protected mappings, binarization rules.

A schema YAML document describes one dataset (see `load_schema`). It may
declare several named sensitive-attribute options; materializing the schema
picks exactly one, so every `DatasetSchema` instance has a single protected
column and privileged value set.
"""

from dataclasses import dataclass, field

import yaml

from ..errors import SchemaError

_PREDICATE_OPS = ("<", "<=", ">", ">=", "==", "in", "default")


def _cell_key(value):
    """Canonical comparison key for a raw cell: numeric when parseable, else stripped text."""
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
        if not isinstance(key, float):
            return False
        ref = float(self.value)
        if self.op == "<":
            return key < ref
        if self.op == "<=":
            return key <= ref
        if self.op == ">":
            return key > ref
        return key >= ref


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
        if not isinstance(entry, dict) or "when" not in entry or "value" not in entry:
            raise SchemaError(f"{where}[{i}]: rule needs 'when' and 'value'")
        when = str(entry["when"]).strip()
        if when == "default":
            rules.append(BinarizationRule(column, source, "default", None, str(entry["value"])))
            continue
        parts = when.split(None, 1)
        if len(parts) != 2 or parts[0] not in _PREDICATE_OPS:
            raise SchemaError(f"{where}[{i}]: bad predicate {when!r} (ops: {', '.join(_PREDICATE_OPS)})")
        op, arg = parts
        if op == "in":
            values = [v.strip() for v in arg.strip("[] ").split(",") if v.strip()]
            if not values:
                raise SchemaError(f"{where}[{i}]: empty 'in' list")
            rules.append(BinarizationRule(column, source, op, tuple(values), str(entry["value"])))
        else:
            rules.append(BinarizationRule(column, source, op, arg, str(entry["value"])))
    return rules


def _sensitive_options(doc: dict) -> dict:
    """Declared sensitive attribute name -> its block: `protected` first, then `sensitive_options`."""
    options = {}
    if doc.get("protected"):
        blk = doc["protected"]
        options[str(blk.get("attribute", blk.get("column", "")))] = blk
    for attr, blk in (doc.get("sensitive_options") or {}).items():
        options[str(attr)] = blk
    return options


def schema_from_dict(doc: dict, sensitive: str = None, source: str = "<schema>") -> DatasetSchema:
    """Materialize a DatasetSchema from a parsed YAML document.

    `sensitive` picks one entry of `sensitive_options`; default is the
    document's `protected` block (or its `default_sensitive` name).
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: schema document must be a mapping")
    known = {
        "name", "label", "protected", "sensitive_options", "default_sensitive",
        "features", "drop", "binarize", "missing", "categories",
        "keep_protected_in_features",
    }
    unknown = set(doc) - known
    if unknown:
        raise SchemaError(f"{source}: unknown keys {sorted(unknown)}")

    name = doc.get("name")
    if not name:
        raise SchemaError(f"{source}: 'name' is required")

    label = doc.get("label") or {}
    if "column" not in label or "favorable" not in label:
        raise SchemaError(f"{source}: label needs 'column' and 'favorable'")

    options = _sensitive_options(doc)
    if not options:
        raise SchemaError(f"{source}: no protected attribute declared")

    chosen = sensitive or doc.get("default_sensitive") or next(iter(options))
    if chosen not in options:
        raise SchemaError(
            f"{source}: sensitive attribute {chosen!r} not declared (have {sorted(options)})"
        )
    blk = options[chosen]
    if "column" not in blk or "privileged" not in blk:
        raise SchemaError(f"{source}: protected option {chosen!r} needs 'column' and 'privileged'")
    privileged = blk["privileged"]
    if not isinstance(privileged, (list, tuple)):
        privileged = [privileged]

    features = doc.get("features") or {}
    numeric = frozenset(str(c) for c in features.get("numeric") or ())
    categorical = frozenset(str(c) for c in features.get("categorical") or ())

    rules = []
    for j, blk_rule in enumerate(doc.get("binarize") or ()):
        col = blk_rule.get("column")
        if not col:
            raise SchemaError(f"{source}: binarize[{j}] needs 'column'")
        src = str(blk_rule.get("from", col))
        rules.extend(
            _parse_rules(str(col), src, blk_rule.get("rules") or (), f"{source}: binarize[{j}].rules")
        )

    missing = doc.get("missing") or {}

    return DatasetSchema(
        name=str(name),
        label_column=str(label["column"]),
        favorable_value=label["favorable"],
        protected_column=str(blk["column"]),
        privileged_values=frozenset(str(v) for v in privileged),
        numeric_columns=numeric,
        categorical_columns=categorical,
        drop_columns=frozenset(str(c) for c in doc.get("drop") or ()),
        binarize=tuple(rules),
        missing_tokens=frozenset(str(t) for t in missing.get("tokens") or ()),
        drop_missing_rows=bool(missing.get("drop_rows", False)),
        categories={str(k): [str(v) for v in vals] for k, vals in (doc.get("categories") or {}).items()},
        keep_protected_in_features=bool(doc.get("keep_protected_in_features", False)),
        sensitive_attribute=str(chosen),
    )


def load_schema(path, sensitive: str = None) -> DatasetSchema:
    """Load a dataset schema YAML file; `sensitive` picks a declared attribute option."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise SchemaError(f"{path}: invalid YAML: {exc}") from exc
    return schema_from_dict(doc, sensitive=sensitive, source=str(path))


def declared_sensitive_attributes(path):
    """Attribute names a schema file declares, the one `load_schema` picks by default first.

    A `default_sensitive` that names no declared attribute is a SchemaError, as in `load_schema`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    names = [name for name in _sensitive_options(doc) if name]
    default = doc.get("default_sensitive")
    if default and default not in names:
        raise SchemaError(f"{path}: default_sensitive {default!r} not declared (have {sorted(names)})")
    return sorted(names, key=lambda name: name != default)
