"""The one CSV reader and writer (RFC-4180 quoting, UTF-8, header required) and the raw table they fill."""

import csv
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, count
from pathlib import Path

from ..errors import DataFormatError
from .schema import DatasetSchema


def _text(cells):
    """A row of cells as a tuple of stripped text."""
    try:
        return tuple(map(str.strip, cells))
    except TypeError:  # a cell that is not text
        return tuple([str(cell).strip() for cell in cells])


def _header_names(cells, needs=()):
    """A header's names as stripped text; no name, or a name in `needs` absent, is a DataFormatError."""
    names = _text(cells)
    if not names:
        raise DataFormatError("no header row")
    missing = sorted(set(needs).difference(names))
    if missing:
        raise DataFormatError(f"missing column(s) {missing}")
    return names


def _checked(numbered, names):
    """`numbered` (file line, cells) pairs, each checked to hold a cell per name and, under a name given twice
    (the ProPublica COMPAS file names two columns twice), the same cell in each copy."""
    twins = [(name, names.index(name), k) for k, name in enumerate(names) if names.index(name) < k]
    for line, row in numbered:
        if len(row) != len(names):
            raise DataFormatError(f"line {line} has {len(row)} cells, header has {len(names)}")
        for name, first, k in twins:
            if str(row[first]).strip() != str(row[k]).strip():
                raise DataFormatError(f"column {name!r} appears twice in the header and holds "
                                      f"{row[first]!r} and {row[k]!r} on line {line}")
        yield line, row


@contextmanager
def read_csv(path, needs=(), delimiter=","):
    """The UTF-8 CSV file at `path` as its `_header_names` and its non-blank rows streamed as `_checked` (last
    file line, cells) pairs; a DataFormatError raised while it is open, by the caller too, names the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            reader = csv.reader(fh, delimiter=delimiter)
            header = _header_names(next(reader, ()), needs)
            yield header, _checked(((reader.line_num, row) for row in reader if row), header)
        except (DataFormatError, csv.Error, UnicodeDecodeError) as exc:  # a decode error names the codec
            raise DataFormatError(f"{path}: {exc}") from None


def write_csv(path, header, rows) -> Path:
    """`header` and `rows` as a UTF-8 CSV file with "\\n" line ends; a cell is quoted only where it holds the
    delimiter, a quote or a "\\n"."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(chain([header], rows))
    return path


@dataclass(frozen=True)
class RawTable:
    """Header-named rows of raw cells and each row's file line; construction stores each name and cell as
    stripped text and checks them by `read_csv`'s rules, with the rows on lines 2, 3, ... ."""

    columns: tuple
    rows: tuple
    lines: array = field(init=False)  # int64, 8 bytes a row where a tuple of ints holds about 36

    def __post_init__(self):
        columns = _header_names(self.columns)
        _fill(self, columns, _checked(zip(count(2), self.rows), columns))

    @property
    def n(self):
        return len(self.rows)


def _fill(table, columns, numbered):
    """`table` holding `columns` and, read in one pass, the stripped cells and the lines of `numbered`'s pairs."""
    lines, rows = array("q"), []
    for line, row in numbered:
        lines.append(line)
        rows.append(_text(row))
    if not rows:
        raise DataFormatError("table has no data rows")
    for name, value in (("columns", columns), ("rows", tuple(rows)), ("lines", lines)):
        object.__setattr__(table, name, value)
    return table


def load_csv(path, schema: DatasetSchema) -> RawTable:
    """Read a CSV file by `read_csv`'s rules, checking it provides every column the schema references;
    unreferenced columns are retained, as `encode` decides what becomes a feature."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with read_csv(path) as (header, rows):
        table = _fill(object.__new__(RawTable), header, rows)  # its rows checked by `read_csv`, not again
        _header_names(header, schema.referenced_columns())  # after the rows: a column named twice is named first
    return table
