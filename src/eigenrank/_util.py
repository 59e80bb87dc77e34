"""Small internal helpers, including the one rule for stored arrays
(``column``) and the one CSV dialect every file shares.

Every CSV this package writes has a header row, ``\\n`` line ends and
quoting only where a cell needs it; every CSV it reads goes through
``CsvRows``, which holds the one grammar of rows and cells, and the
journals, citations and scores readers read theirs through ``parse_rows``,
which hands each chunk of plain rows to a numpy kernel first.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import CsvFormatError, DataError, ValidationError


def column(values, dtype, name: str = "", row: str = "") -> np.ndarray:
    """``values`` as a read-only one-dimensional array of ``dtype`` (float or
    int64): a one-dimensional array of ``dtype`` is the array itself, made
    read-only in place, and anything else is converted once.  For int64, a
    value that is not an integer (a float or a bool included) raises
    ValidationError naming the column ``name``; one outside int64 names its
    ``row`` and position too."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype and values.ndim == 1):
        values = (_int64_cells(values, name, row) if dtype == np.int64
                  else np.array(values, dtype=dtype).reshape(-1))
    values.setflags(write=False)
    return values


def set_fields(obj, **fields) -> None:
    """Set fields of the frozen dataclass ``obj`` from its own (post-)init."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _int64_cells(values, name: str, row: str) -> np.ndarray:
    cells = (values.tolist() if isinstance(values, np.ndarray)
             else values if isinstance(values, (list, tuple)) else list(values))
    if not all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, cells))):
        odd = next(c for c in cells if not isinstance(c, (int, np.integer)) or isinstance(c, bool))
        raise ValidationError(f"{name} must hold integers, got {odd!r}")
    converted = np.array(cells) if cells else np.empty(0, dtype=np.int64)
    if converted.dtype != np.int64:  # numpy holds a cell past int64 in another dtype
        for i, cell in enumerate(cells):
            if not -2**63 <= cell < 2**63:
                raise ValidationError(f"{row} {i}: {out_of_range(name, cell)}")
        # from Python ints: numpy holds uint64 cells mixed with signed ones as float64
        converted = np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    return converted


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
    lines as a file opened with ``newline=""`` is, at LF, CRLF or CR.

    With ``header`` given, ``source`` is a piece of a text: the rows after
    that header row, with lines counted from the piece's start.  A piece
    holding a quote is read whole here: a last row that its end cuts inside
    a quoted cell is not yielded, and ``cut`` is set.
    """

    def __init__(self, source: str | TextIO, header: Sequence[str] | None = None):
        # a chunk at a time: io.StringIO stores its text at 4 bytes a character
        lines = (io.StringIO(chunk, newline="") for chunk in text_chunks(read_text(source)))
        self.cut = self._ended = False
        self._reader = csv.reader(itertools.chain(itertools.chain.from_iterable(lines),
                                                  self._end()))
        self._rows = self._read(header)
        self.header: Sequence[str] | None = next(self._rows)
        if header is not None and '"' in source:  # only a quoted cell can run past its end
            self._rows = iter(list(self._rows))

    def __iter__(self) -> Iterator[list[str]]:
        return self._rows

    def _end(self) -> Iterator[str]:
        """No line: the csv reader asks for one past the last only to end a
        row, or to find that there is none."""
        self._ended = True
        yield from ()

    def _read(self, header: Sequence[str] | None) -> Iterator:
        piece = header is not None
        try:
            if not piece:
                header = next(self._reader, None)
            yield header
            width = len(header or ())
            for row in self._reader:
                if piece and self._ended:  # the piece ends inside this row's quoted cell
                    self.cut = True
                    return
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
        if not -2**63 <= value < 2**63:
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


def parse_rows(text: str, header: Sequence[str], what: str, reader: type):
    """``reader``'s result for ``text``, a file named ``what`` that must
    start with the ``header`` row: the result and every error are those of
    ``row_loop``.

    A ``reader()`` holds what a file's rows have taught it, ``dtypes`` (those
    of its columns) and three methods:

    * ``kernel(chunk)``: the columns of the rows of a newline-ended piece of
      the text, or None, having learnt nothing, where it cannot show that
      the row loop reads the same;
    * ``rows(rows)``: the columns of the rows of a ``CsvRows``, read one at
      a time;
    * ``result(columns)``: what the file holds, its rows being ``columns``.

    A text longer than one chunk that starts with the exact header line is
    read in chunks: the kernel answers or declines each, a declined chunk is
    read by ``rows`` alone, and one that leaves a quoted cell open is joined
    to the next.  Any error there, and any other text, goes to ``row_loop``
    over the whole text, which raises every error with its line; for a
    short text that is also the faster way, the kernels' numpy calls costing
    more than its rows.
    """
    header_line = ",".join(header) + "\n"
    # the row loop fails on a header cell over the csv field size limit
    if (len(text) > _CHUNK_CHARS and text.startswith(header_line)
            and max(map(len, header)) <= csv.field_size_limit()):
        chunked = reader()
        try:
            return chunked.result(_chunk_columns(text, header, len(header_line), chunked))
        except DataError:
            pass
    rows = csv_reader(text, header, what)
    del text  # the rows free the text once read, before their values are converted
    return row_loop(reader, rows)


def row_loop(reader: type, rows: CsvRows):
    """``reader``'s result for ``rows``, a whole file read one row at a time."""
    state = reader()
    return state.result(state.rows(rows))


def _chunk_columns(text: str, header: Sequence[str], start: int, reader) -> list[np.ndarray]:
    """The columns ``reader`` reads from the rows of ``text`` after ``start``,
    chunk by chunk, stored once in arrays sized to the lines of the text."""
    lines = text.count("\n")
    if "\r" in text:  # a line may end at a CR too
        lines += text.count("\r") - text.count("\r\n")
    columns = [np.empty(lines, dtype=dtype) for dtype in reader.dtypes]
    filled = 0
    cut = ""
    for chunk in text_chunks(text, start):
        chunk = cut + chunk
        block = reader.kernel(chunk)
        if block is None:
            rows = CsvRows(chunk, header)
            cut = chunk if rows.cut else ""
            if cut:
                continue
            block = reader.rows(rows)
        for values, stored in zip(block, columns):
            stored[filled:filled + len(values)] = values
        filled += len(block[0])
    if cut:
        raise CsvFormatError("the text ends inside a quoted cell")  # read by the row loop
    return [stored[:filled] for stored in columns]
