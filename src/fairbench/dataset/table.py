"""Raw table carrier and CSV ingestion (RFC-4180 quoting, UTF-8, header required)."""

import csv
from dataclasses import dataclass
from pathlib import Path

from ..errors import DataFormatError
from .schema import DatasetSchema


@dataclass(frozen=True)
class RawTable:
    """Header-named rows of raw cells, exactly as read (all cells are text)."""

    columns: tuple
    rows: tuple

    def __post_init__(self):
        if len(self.rows) < 1:
            raise DataFormatError("table has no data rows")
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise DataFormatError(
                    f"row {i + 2}: has {len(row)} cells, header has {width} columns"
                )

    @property
    def n(self):
        return len(self.rows)


def load_csv(path, schema: DatasetSchema) -> RawTable:
    """Read a CSV file and check it provides every column the schema references.

    Unreferenced columns are retained; `encode` decides what becomes a feature.
    Raises DataFormatError naming the row/column on ragged rows or missing columns.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, header row required") from None
        columns = tuple(name.strip() for name in header)
        rows = []
        for i, row in enumerate(reader):
            if not row:
                continue  # tolerate trailing blank lines
            if len(row) != len(columns):
                raise DataFormatError(
                    f"{path}: row {i + 2} has {len(row)} cells, header has {len(columns)} columns"
                )
            rows.append(tuple(cell.strip() for cell in row))

    missing = sorted(schema.referenced_columns() - set(columns))
    if missing:
        raise DataFormatError(f"{path}: header lacks schema column(s): {', '.join(missing)}")
    return RawTable(columns=columns, rows=tuple(rows))
