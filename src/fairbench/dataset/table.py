"""Raw table carrier and CSV ingestion (RFC-4180 quoting, UTF-8, header required)."""

import csv
from dataclasses import dataclass
from pathlib import Path

from ..errors import DataFormatError
from .schema import DatasetSchema


def _text(cells):
    """A row of cells as a tuple of stripped text."""
    try:
        return tuple(map(str.strip, cells))
    except TypeError:  # a cell that is not text
        return tuple([str(cell).strip() for cell in cells])


@dataclass(frozen=True)
class RawTable:
    """Header-named rows of raw cells; construction stores each name and cell as stripped text."""

    columns: tuple
    rows: tuple

    def __post_init__(self):
        columns, rows = _text(self.columns), tuple([_text(row) for row in self.rows])
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise DataFormatError("table has no data rows")
        for k, name in enumerate(columns):
            if name in columns[:k]:
                raise DataFormatError(f"column {name!r} appears twice in the header")
        for i, row in enumerate(rows):
            if len(row) != len(columns):
                raise DataFormatError(f"row {i + 2}: has {len(row)} cells, header has {len(columns)} columns")

    @property
    def n(self):
        return len(self.rows)


def load_csv(path, schema: DatasetSchema) -> RawTable:
    """Read a CSV file and check it provides every column the schema references.

    Unreferenced columns are retained; `encode` decides what becomes a feature.
    Raises DataFormatError naming the file and the row or column on ragged rows,
    a repeated header name or missing columns.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file, header row required")
        try:
            table = RawTable(columns=header, rows=_checked_rows(reader, len(header)))
        except DataFormatError as exc:
            raise DataFormatError(f"{path}: {exc}") from None
    missing = sorted(schema.referenced_columns() - set(table.columns))
    if missing:
        raise DataFormatError(f"{path}: header lacks schema column(s): {', '.join(missing)}")
    return table


def _checked_rows(reader, width):
    for i, row in enumerate(reader):
        if not row:
            continue  # tolerate blank lines
        if len(row) != width:
            raise DataFormatError(f"row {i + 2} has {len(row)} cells, header has {width} columns")
        yield row
