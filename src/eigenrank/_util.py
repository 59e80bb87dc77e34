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
    """``values`` as a read-only one-dimensional array of ``dtype``: float,
    int64, or ``np.signedinteger`` for a signed integer type of any width.
    A one-dimensional array of ``dtype`` is the array itself, made read-only
    in place; a narrower signed integer array is converted to int64, and
    anything else is converted once, to int64 for an integer ``dtype``.  An
    integer column is never truncated: a value that is not an integer (a
    float or a bool included) raises ValidationError naming the column
    ``name``, and one outside int64 names its ``row`` and position too."""
    if not (isinstance(values, np.ndarray) and values.ndim == 1
            and np.issubdtype(values.dtype, dtype)):
        if not np.issubdtype(dtype, np.integer):
            values = np.array(values, dtype=dtype).reshape(-1)
        elif isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind == "i":
            values = values.astype(np.int64)
        else:
            values = _int64_cells(values, name, row)
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
    return source if isinstance(source, str) else "".join(pieces(source))


def pieces(source: str | TextIO) -> Iterator[str]:
    """``source`` (text or an open file) in pieces of about ``_CHUNK_CHARS``
    characters, each ending at a line end or at the end of the source: text
    is sliced at a newline, and a file is read a piece and then the rest of
    its line at a time, never whole."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = source.find("\n", start + _CHUNK_CHARS) + 1 or len(source)
            yield source[start:end]
            start = end
    else:
        while piece := source.read(_CHUNK_CHARS):
            piece += source.readline()
            yield piece


class CsvRows:
    """The rows of a CSV file: ``header`` is the first (None for an empty
    file), and iterating yields each non-blank row after it.  A row not as
    wide as the header, a ``csv.Error`` (a cell over the csv field size
    limit) and a cell a ``*_cell`` method refuses are format errors naming
    their line.  ``source`` (text, or an open file read a piece at a time)
    is split into lines as a file opened with ``newline=""`` is, at LF, CRLF
    or CR.

    ``source`` may be a piece of a file that starts at line ``line``, and
    with ``header`` given it holds the rows after that header row.  With
    ``more``, the file goes on after the piece: a last row that the piece's
    end cuts inside a quoted cell is not yielded, and ``cut`` is set.  Such
    a piece holding a quote is read here whole, and an error met on the way
    is raised when iteration reaches it.
    """

    def __init__(self, source: str | TextIO, header: Sequence[str] | None = None,
                 line: int = 1, more: bool = False):
        # a piece at a time: io.StringIO stores its text at 4 bytes a character
        lines = (io.StringIO(piece, newline="") for piece in pieces(source))
        self.cut = self._ended = False
        self.line = self._before = line - 1  # ``line``: the line last read
        self._reader = csv.reader(itertools.chain(itertools.chain.from_iterable(lines),
                                                  self._end()))
        self._rows = self._read(header, more)
        self.header: Sequence[str] | None = next(self._rows)
        if more and '"' in source:  # only a quoted cell can run past the piece's end
            read, error = [], None
            try:
                for row in self._rows:
                    read.append((self.line, row))
            except CsvFormatError as exc:
                error = exc
            self._rows = self._replay(read, error)

    def __iter__(self) -> Iterator[list[str]]:
        return self._rows

    def _end(self) -> Iterator[str]:
        """No line: the csv reader asks for one past the last only to end a
        row, or to find that there is none."""
        self._ended = True
        yield from ()

    def _read(self, header: Sequence[str] | None, more: bool) -> Iterator:
        try:
            if header is None:
                header = next(self._reader, None)
                self.cut = more and self._ended  # the piece ends inside the header row
            yield header
            width = len(header or ())
            for row in self._reader:
                self.line = self._before + self._reader.line_num
                if more and self._ended:  # the piece ends inside this row's quoted cell
                    self.cut = True
                    return
                if len(row) == width and row:
                    yield row
                elif row:
                    raise self.error(f"expected {width} columns, got {len(row)}")
        except csv.Error as exc:
            self.line = self._before + self._reader.line_num
            raise self.error(str(exc)) from None

    def _replay(self, read: list, error: CsvFormatError | None) -> Iterator[list[str]]:
        """The rows read ahead, each at its line, then the error that ended them."""
        for line, row in read:
            self.line = line
            yield row
        if error is not None:
            raise error

    def error(self, message: str) -> CsvFormatError:
        """A format error naming the line last read."""
        return CsvFormatError(f"line {self.line}: {message}")

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


def csv_reader(source: str | TextIO, header: Sequence[str], what: str,
               more: bool = False) -> CsvRows:
    """The rows of ``source`` (text or an open file) after its header row; a
    missing or different header is a format error naming the file as
    ``what``.  With ``more``, ``source`` is the file's first piece, and is
    not checked if ``cut`` (see ``CsvRows``)."""
    rows = CsvRows(source, more=more)
    if rows.cut:
        return rows
    if rows.header is None:
        raise CsvFormatError(f"{what}: missing header row")
    if tuple(h.strip() for h in rows.header) != tuple(header):
        raise CsvFormatError(f"{what}: expected header {','.join(header)}, "
                             f"got {','.join(rows.header)}")
    return rows


def parse_rows(source: str | TextIO, header: Sequence[str], what: str, reader: type):
    """``reader``'s result for ``source`` (text or an open file), a file
    named ``what`` that must start with the ``header`` row: the result and
    every error are those of ``row_loop``.

    A ``reader()`` holds what a file's rows have taught it and three methods:

    * ``kernel(chunk)``: the columns of the rows of a newline-ended piece of
      the file, or None, having learnt nothing, where it cannot show that
      the row loop reads the same;
    * ``rows(rows)``: the columns of the rows of a ``CsvRows``, read one at
      a time;
    * ``result(columns)``: what the file holds, its rows being ``columns``.

    A source of at most ``_CHUNK_CHARS`` characters goes to ``row_loop``,
    where the kernels' numpy calls would cost more than its rows.  A longer
    one is read a piece (``pieces``) at a time, never whole: after an exact
    header line the kernel answers or declines each piece, ``rows`` reads a
    declined one, and one that leaves a quoted cell open is joined to the
    next.  An error is raised from the piece where it occurs, with its line,
    once the rest of the source is read, so that a later byte that is not
    UTF-8 is the error whatever row before it is faulty.  The integer
    columns come in the narrowest signed type that holds them.
    """
    chunks = pieces(source)
    taken = [next(chunks, ""), next(chunks, "")]
    if len(taken[0]) <= _CHUNK_CHARS and not taken[1]:
        return row_loop(reader, csv_reader(taken[0], header, what))
    state = reader()
    try:
        return state.result(_chunk_columns(taken, chunks, header, what, state))
    except DataError:
        for _ in chunks:  # the rest of the source
            pass
        raise


def row_loop(reader: type, rows: CsvRows):
    """``reader``'s result for ``rows``, a whole file read one row at a time."""
    state = reader()
    return state.result([_narrow(values) for values in state.rows(rows)])


def _narrow(values: np.ndarray) -> np.ndarray:
    """Signed integer ``values`` in the narrowest signed type that holds
    them; other values as they are."""
    if values.dtype.kind != "i":
        return values
    lo, hi = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    dtype = next(dtype for dtype in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max)
    return values.astype(dtype, copy=False)


def _chunk_columns(taken: list[str], rest: Iterator[str], header: Sequence[str], what: str,
                   reader) -> list[np.ndarray]:
    """The columns ``reader`` reads from the pieces of a file, those in
    ``taken`` and then ``rest``: each chunk's integer columns narrowed
    (``_narrow``), then each column joined at once, which widens it to the
    widest chunk's type."""
    header_line = ",".join(header) + "\n"
    head, line = None, 1  # the header row, once read, and the first line of the next chunk
    # the row loop fails on a header cell over the csv field size limit
    if taken[0].startswith(header_line) and max(map(len, header)) <= csv.field_size_limit():
        head, line, taken[0] = header, 2, taken[0][len(header_line):]
    blocks: list[list[np.ndarray]] = []
    cut = ""
    for piece in _then(taken, rest):
        chunk, cut = cut + piece, ""
        block = reader.kernel(chunk) if head else None
        if block is None:
            more = bool(piece)
            rows = (CsvRows(chunk, head, line, more) if head
                    else csv_reader(chunk, header, what, more))
            if rows.cut:
                cut = chunk
                continue
            head = header
            block = reader.rows(rows)
        blocks.append([_narrow(values) for values in block])
        line += chunk.count("\n")
        if "\r" in chunk:  # a line may end at a CR too
            line += chunk.count("\r") - chunk.count("\r\n")
    columns = [list(parts) for parts in zip(*blocks)]
    del blocks
    # one column at a time, its blocks freed once joined
    return [np.concatenate(columns.pop(0)) for _ in range(len(columns))]


def _then(taken: list[str], rest: Iterator[str]) -> Iterator[str]:
    """The pieces in ``taken``, then those of ``rest``, then "" for the end
    of the file: each popped from ``taken`` as it is yielded, so that no
    piece is held once the next is read."""
    while taken:
        yield taken.pop(0)
    yield from rest
    yield ""
