"""Turn a RawTable into a numeric TabularDataset under a DatasetSchema, column by column."""

import warnings
from itertools import compress

import numpy as np

from ..errors import DataFormatError, FairbenchWarning, SchemaError
from .schema import DatasetSchema, cells_match
from .table import RawTable
from .tabular import TabularDataset


def _per_value(cells, fn, dtype):
    """`fn` evaluated once per distinct cell, in first-seen order, and spread back over the rows."""
    index = {cell: k for k, cell in enumerate(dict.fromkeys(cells))}
    values = np.array([fn(cell) for cell in index], dtype=dtype)
    return values[np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))]


def _number(cell, cells, col, file_rows):
    try:
        return float(cell)
    except ValueError:
        raise DataFormatError(
            f"row {file_rows[cells.index(cell)]}, column {col!r}: non-numeric cell {cell!r} in a numeric column"
        ) from None


def encode(table: RawTable, schema: DatasetSchema) -> TabularDataset:
    """Encode labels/protected to {0,1}, one-hot categoricals, pass numerics through.

    Label is 1 iff the raw label equals the schema's favorable value; protected is
    1 iff the raw value is in the privileged set. Categorical levels are taken in
    first-seen order unless the schema pins them (then unseen values get an
    all-zero row plus a warning). The protected column is excluded from the
    feature matrix unless the schema overrides that. Weights start at 1.
    The table is read column by column: each binarization rule, label and group
    match and level lookup runs once per distinct cell of a column.
    """
    watched = schema.referenced_columns() | schema.derived_columns()
    names = list(table.columns)
    cols = {name: cells for name, cells in zip(names, zip(*table.rows)) if name in watched}

    by_target = {}  # first-match rules per (target, source); a derived target is appended
    for rule in schema.binarize:
        by_target.setdefault((rule.column, rule.source), []).append(rule)
    for (target, source), rules in by_target.items():
        if source not in cols:
            raise DataFormatError(f"binarization source column {source!r} not in table")
        cells, output = cols[source], {}
        for cell in dict.fromkeys(cells):
            output[cell] = next((rule.output for rule in rules if rule.matches(cell)), None)
            if output[cell] is None:
                raise DataFormatError(f"row {table.lines[cells.index(cell)]}, column {source!r}: "
                                      f"value {cell!r} matches no binarization rule")
        cols[target] = tuple(map(output.__getitem__, cells))
        if target not in names:
            names.append(target)

    file_rows = table.lines  # each kept row's line in the file, for error texts
    if schema.drop_missing_rows and schema.missing_tokens:
        is_token = schema.missing_tokens.__contains__
        missing = np.any([_per_value(cells, is_token, bool) for cells in cols.values()], axis=0)
        if missing.any():
            warnings.warn(f"{schema.name}: dropped {missing.sum()} row(s) with missing values", FairbenchWarning)
            if missing.all():
                raise DataFormatError(f"{schema.name}: all rows dropped as missing")
            keep = (~missing).tolist()
            cols = {name: tuple(compress(cells, keep)) for name, cells in cols.items()}
            file_rows = tuple(compress(file_rows, keep))

    labels = _per_value(cols[schema.label_column], lambda cell: cells_match(cell, schema.favorable_value), np.int64)
    protected = _per_value(cols[schema.protected_column],
                           lambda cell: any(cells_match(cell, v) for v in schema.privileged_values), np.int64)

    excluded = {schema.label_column, *schema.drop_columns}
    if not schema.keep_protected_in_features:
        excluded.add(schema.protected_column)
    roles = schema.numeric_columns | schema.categorical_columns
    feature_order = [c for c in names if c in roles and c not in excluded]
    if not feature_order:
        raise SchemaError(f"{schema.name}: no feature columns present")

    n = len(labels)
    blocks, feature_names = [], []
    for col in feature_order:
        cells = cols[col]
        if col in schema.numeric_columns:
            blocks.append(_per_value(cells, lambda cell: _number(cell, cells, col, file_rows), np.float64)[:, None])
            feature_names.append(col)
            continue
        levels = schema.categories.get(col)
        if levels is None:
            levels = list(dict.fromkeys(cells))
        level_pos = {lv: k for k, lv in enumerate(levels)}
        level = _per_value(cells, lambda cell: level_pos.get(cell, -1), np.intp)
        seen = level >= 0
        onehot = np.zeros((n, len(levels)))
        onehot[seen, level[seen]] = 1.0
        if not seen.all():
            message = f"column {col!r}: {n - seen.sum()} value(s) outside the pinned levels encoded as all-zero"
            warnings.warn(f"{schema.name}: {message}", FairbenchWarning)
        blocks.append(onehot)
        feature_names.extend(f"{col}={lv}" for lv in levels)

    return TabularDataset(np.hstack(blocks), labels, protected, np.ones(n), tuple(feature_names),
                          f"{schema.name}[{schema.sensitive_attribute}]")
