"""Small internal helpers, including the one CSV dialect every file shares.

Every CSV this package writes has a header row, ``\\n`` line ends and
quoting only where a cell needs it; every CSV it reads goes through
``CsvRows``, which holds the one grammar of rows and cells.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
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


def fits_int64(value: int) -> bool:
    return -2**63 <= value < 2**63


def out_of_range(name: str, value: int) -> str:
    return f"{name} {value} out of range (not a 64-bit integer)"


def utf8_error_line(data: bytes) -> int | None:
    """The line holding the first byte of ``data`` that is not UTF-8, or None."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


_CHUNK_CHARS = 1 << 18


def read_text(source: str | TextIO) -> str:
    """``source`` as one string: an open file is read whole, once."""
    if isinstance(source, str):
        return source
    # in pieces: freeing a file-sized buffer before the parse raises malloc's
    # mmap threshold, and the heap the parse then grows is kept after it
    return "".join(iter(lambda: source.read(_CHUNK_CHARS), ""))


def text_chunks(text: str, start: int = 0) -> Iterator[str]:
    """``text`` from ``start`` on, in pieces of about ``_CHUNK_CHARS``
    characters, each ending at a newline or at the end of the text."""
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


class CsvRows:
    """The rows of a CSV file: ``header`` is the first (None for an empty
    file), and iterating yields each non-blank row after it.  A row not as
    wide as the header, a ``csv.Error`` (a cell over the csv field size
    limit) and a cell a ``*_cell`` method refuses are format errors naming
    their line.  ``source`` (text, or an open file read whole) is split into
    lines as a file opened with ``newline=""`` is, at LF, CRLF or CR."""

    def __init__(self, source: str | TextIO):
        # a chunk at a time: io.StringIO stores its text at 4 bytes a character
        lines = (io.StringIO(chunk, newline="") for chunk in text_chunks(read_text(source)))
        self._reader = csv.reader(itertools.chain.from_iterable(lines))
        self._rows = self._read()
        self.header: list[str] | None = next(self._rows)

    def __iter__(self) -> Iterator[list[str]]:
        return self._rows

    def _read(self) -> Iterator:
        try:
            header = next(self._reader, None)
            yield header
            width = len(header or ())
            for row in self._reader:
                if len(row) == width and row:
                    yield row
                elif row:
                    raise self.error(f"expected {width} columns, got {len(row)}")
        except csv.Error as exc:
            raise self.error(str(exc)) from None

    def error(self, message: str) -> CsvFormatError:
        """A format error naming the line last read."""
        return CsvFormatError(f"line {self._reader.line_num}: {message}")

    def id_cell(self, cell: str, name: str) -> str:
        """An id: ``cell`` stripped, which must not be empty."""
        jid = cell.strip()
        if not jid:
            raise self.error(f"empty {name}")
        return jid

    def int_cell(self, cell: str, name: str, minimum: int | None = None) -> int:
        """An integer: an optional ``-``, then ASCII digits, within int64
        and at least ``minimum``; surrounding whitespace is ignored."""
        text = cell.strip()
        value = _number(int, text)
        if value is None:
            raise self.error(f"malformed {name} {text!r}")
        if not fits_int64(value):
            raise self.error(out_of_range(name, value))
        if minimum is not None and value < minimum:
            raise self.error(f"{name} must be >= {minimum}, got {value}")
        return value

    def decimal_cell(self, cell: str, name: str) -> float:
        """A decimal: a finite number written as an optional ``-``, ASCII
        digits with an optional point and an optional exponent; surrounding
        whitespace is ignored, and an empty cell is undefined (NaN)."""
        text = cell.strip()
        if not text:
            return math.nan
        value = _number(float, text)
        if value is None or not math.isfinite(value):
            raise self.error(f"malformed {name} {text!r}")
        return value


def _number(kind: type, text: str) -> int | float | None:
    """``kind(text)`` for int or float; None where that fails or ``text`` has
    what both read beyond this grammar: a leading ``+``, ``_``, non-ASCII."""
    if text.isascii() and text[:1] != "+" and "_" not in text:
        try:
            return kind(text)
        except ValueError:  # malformed, or more digits than int() converts
            pass
    return None


def csv_reader(source: str | TextIO, header: Sequence[str], what: str) -> CsvRows:
    """The rows of ``source`` (text or an open file) after its header row; a
    missing or different header is a format error naming the file as ``what``."""
    rows = CsvRows(source)
    if rows.header is None:
        raise CsvFormatError(f"{what}: missing header row")
    if tuple(h.strip() for h in rows.header) != tuple(header):
        raise CsvFormatError(f"{what}: expected header {','.join(header)}, "
                             f"got {','.join(rows.header)}")
    return rows
