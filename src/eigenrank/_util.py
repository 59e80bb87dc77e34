"""Small internal helpers, including the one CSV dialect every file shares.

Every CSV this package writes has a header row, ``\\n`` line ends and
quoting only where a cell needs it; every fixed-header CSV it reads starts
with a header row that must match, cell by cell after stripping.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence, TextIO

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


def csv_reader(source: str | TextIO, header: Sequence[str], what: str) -> csv.reader:
    """A ``csv.reader`` over ``source`` (text or an open file), positioned
    after its header row; a missing or different header is a format error
    naming the file as ``what``."""
    rdr = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    row = next(rdr, None)
    if row is None:
        raise CsvFormatError(f"{what}: missing header row")
    if tuple(h.strip() for h in row) != tuple(header):
        raise CsvFormatError(f"{what}: expected header {','.join(header)}, got {','.join(row)}")
    return rdr
