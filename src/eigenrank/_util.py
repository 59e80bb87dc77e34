"""Small internal helpers, including the one CSV dialect every file shares.

Every CSV this package writes has a header row, ``\\n`` line ends and
quoting only where a cell needs it; every fixed-header CSV it reads starts
with a header row that must match, cell by cell after stripping.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import CsvFormatError


def readonly(values, dtype=float) -> np.ndarray:
    """Copy ``values`` into a read-only 1-D array (immutability guard)."""
    arr = np.array(values, dtype=dtype).reshape(-1)
    arr.setflags(write=False)
    return arr


def write_text(path, text: str) -> None:
    # newline="" keeps the emitted bytes identical across platforms
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of ``header`` followed by ``rows``."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


class CsvRows:
    """The rows of a ``csv.reader``, with its ``line_num``.  A ``csv.Error``
    (a cell longer than ``csv.field_size_limit()``) is a format error that
    names the line it is on."""

    def __init__(self, source: str | TextIO):
        self._reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)

    @property
    def line_num(self) -> int:
        return self._reader.line_num

    def __iter__(self) -> Iterator[list[str]]:
        try:
            yield from self._reader
        except csv.Error as exc:
            raise CsvFormatError(f"line {self.line_num}: {exc}") from None


def csv_reader(source: str | TextIO, header: Sequence[str], what: str) -> CsvRows:
    """The rows of ``source`` (text or an open file) after its header row; a
    missing or different header is a format error naming the file as ``what``."""
    rows = CsvRows(source)
    row = next(iter(rows), None)
    if row is None:
        raise CsvFormatError(f"{what}: missing header row")
    if tuple(h.strip() for h in row) != tuple(header):
        raise CsvFormatError(f"{what}: expected header {','.join(header)}, got {','.join(row)}")
    return rows
