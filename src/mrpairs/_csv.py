"""The CSV format of every input and output file.

Inputs are two-column UTF-8 keyed tables under a fixed header (`date,close`,
`month,value`, `month,direction`), all read by `read_map` under one rule.
Blank or whitespace-only rows are skipped, every other row has exactly two
fields, keys are unique, and at least one row holds data; each problem
raises ValidationError naming `path:line` (or `path`).

Outputs are comma-joined cells with `\\n` line ends and no quoting. Floats
are written with `repr`, so they read back bit-exact; None is an empty cell.
A writer takes its table as columns and formats each column as a whole
(`cells`): a float64 array as `repr` over its `tolist()` and an integer
array as `str` over it, with no per-cell type test; other columns cell by
cell. A column that several files share, such as the dates of one
backtest, is formatted once and passed on as its list of cells.
"""

from __future__ import annotations

import csv
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ValidationError

K = TypeVar("K")
V = TypeVar("V")


def read_rows(path: str, header: str) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, first field, second field) for each data row.

    The first row must equal the `header` line up to case and spaces around
    the names. Line numbers count physical lines, so a quoted field that
    spans lines does not shift the numbers of the rows after it.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                first = next(reader, None)
                names = None if first is None else [h.strip().lower() for h in first]
                if names != header.split(","):
                    raise ValidationError(f"{path}: expected header '{header}'")
                for row in reader:
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue
                    if len(row) != 2:
                        raise ValidationError(
                            f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}"
                        )
                    yield reader.line_num, row[0], row[1]
            except csv.Error as exc:
                raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None


def read_map(
    path: str,
    header: str,
    parse_key: Callable[[str], K],
    parse_value: Callable[[str], V],
) -> dict[K, V]:
    """Each data row's parsed key -> parsed value, in file order.

    A key is stripped before `parse_key` sees it. A field that its parser
    rejects (ValueError or ValidationError) is reported as `bad <name>`,
    with the name taken from the header; so is a repeated key, as
    `duplicate <name>`. A file with no data rows is rejected too.
    """
    key_name, value_name = header.split(",")

    def field(line, name, text, parse):
        try:
            return parse(text)
        except (ValueError, ValidationError):
            raise ValidationError(f"{path}:{line}: bad {name} {text!r}") from None

    out: dict[K, V] = {}
    for line, key_text, value_text in read_rows(path, header):
        key_text = key_text.strip()
        key = field(line, key_name, key_text, parse_key)
        value = field(line, value_name, value_text, parse_value)
        if key in out:
            raise ValidationError(f"{path}:{line}: duplicate {key_name} {key_text}")
        out[key] = value
    if not out:
        raise ValidationError(f"{path}: no data rows")
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # also numpy floats, whose repr is not a number
        return repr(float(value))
    return str(value)


def cells(column: Sequence | np.ndarray) -> list[str]:
    """One column's cells, formatted as a whole: a float64 or integer array
    through `tolist`, any other column value by value."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return list(map(repr, column.tolist()))
        if column.dtype.kind in "iub":
            return list(map(str, column.tolist()))
    return list(map(_cell, column))


def write_csv(path: str, header: str, columns: Sequence[Sequence | np.ndarray]) -> None:
    """Write the header line, then one line per row of the equal-length
    columns; see the module docstring and `cells` for the cells."""
    formatted = [cells(column) for column in columns]
    if len({len(column) for column in formatted}) > 1:
        raise ValueError("columns differ in length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines([",".join(row) + "\n" for row in zip(*formatted)])
