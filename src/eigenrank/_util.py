"""Small internal helpers, including the one rule for stored arrays
(``column``), the block-wise sums and gathers over long columns, and the
one CSV dialect every file shares.

Every CSV this package writes has a header row, ``\\n`` line ends and
quoting only where a cell needs it.  Every CSV it reads follows one
grammar of rows and cells, held here in two forms that must agree: the
row loop (``CsvRows``) reads any row, and the numpy chunk kernels read a
chunk of plain rows at once, ``_cells`` splitting it into byte cells that
``_IdCodes``, ``_decimal_cells`` and ``_six_place_cells`` decode or
decline.  The journals, citations and scores readers get their columns
from ``parse_rows``, which hands each chunk's cells to a kernel first, and
build their results from them.  A row error names the line where the row
starts.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import re
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import CsvFormatError, DataError, ValidationError

# spurious' sampling families, here so that the CLI's parser need not import it
FAMILIES = ("lognormal", "normal-truncated-positive", "uniform-positive")


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


_BLOCK = 1 << 16  # rows a block-wise pass holds index and cast temporaries for


def _blocks(length: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_BLOCK`` rows covering ``length`` rows."""
    return (slice(start, start + _BLOCK) for start in range(0, length, _BLOCK))


def _sums(groups: np.ndarray, values: np.ndarray, n: int, dtype) -> np.ndarray:
    """``values`` summed by ``groups`` below ``n`` in row order, as bincount adds: np.add.at
    a block at a time, each block cast to ``dtype`` (np.add.at is slow across types)."""
    sums = np.zeros(n, dtype=dtype)
    for block in _blocks(len(groups)):
        np.add.at(sums, groups[block], values[block].astype(dtype, copy=False))
    return sums


def _compress(keep: np.ndarray, *columns: np.ndarray) -> list[np.ndarray]:
    """Each of ``columns`` at the rows where ``keep`` holds, gathered by ``take`` a block at a
    time into preallocated arrays: a boolean mask gathers narrow columns several times slower."""
    out = [np.empty(int(np.count_nonzero(keep)), values.dtype) for values in columns]
    done = 0
    for block in _blocks(len(keep)):
        rows = np.flatnonzero(keep[block])
        for values, kept in zip(columns, out):
            kept[done:done + len(rows)] = values[block].take(rows)
        done += len(rows)
    return out


def _int64_sums(groups: np.ndarray, values: np.ndarray, n: int,
               overflow: Callable[[int, int], str]) -> np.ndarray:
    """Exact read-only int64 sums of the non-negative integer ``values`` by
    ``groups``, positions below ``n``.  A sum past int64 raises
    ValidationError with the message ``overflow(group, exact_sum)``."""
    sums = _sums(groups, values, n, np.int64)  # exact, but wraps past int64 without a word
    if len(values) and int(values.max()) * len(values) >= 2**63:  # a sum may have wrapped
        # a float64 sum is within a relative 2**-20 of the exact one, so one
        # that wrapped reads at least 2**62 here
        suspect = (np.bincount(groups, weights=values, minlength=n) >= 2.0**62)[groups]
        exact: dict[int, int] = {}
        for group, value in zip(groups[suspect].tolist(), values[suspect].tolist()):
            exact[group] = exact.get(group, 0) + value
        for group in sorted(exact):
            if exact[group] >= 2**63:
                raise ValidationError(overflow(group, exact[group]))
    return column(sums, np.int64)


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


def out_of_range(name: str, value: int | str) -> str:
    return f"{name} {value} out of range (not a 64-bit integer)"


def utf8_error_line(data: bytes) -> int | None:
    """The line holding the first byte of ``data`` that is not UTF-8, or None."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


_CHUNK_CHARS = 1 << 18
_PIECE_END = re.compile(r"\r\n?|\n|\Z")  # a line end of a file opened with newline="", or the end


def pieces(source: str | TextIO) -> Iterator[str]:
    """``source`` (text or an open file) in pieces of about ``_CHUNK_CHARS``
    characters, each ending at a line end (LF, CRLF or CR) or at the end of
    the source: a file is read a piece and then the rest of its line at a
    time, never whole, and text is cut into the same pieces."""
    if isinstance(source, str):
        start = 0
        while start < len(source):
            end = _PIECE_END.search(source, start + _CHUNK_CHARS).end()
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
    ``line``, the line where their row starts.  ``source`` (text, or an
    open file read a piece at a time) is split into lines as a file opened
    with ``newline=""`` is, at LF, CRLF or CR.

    ``source`` may be a piece of a file that starts at line ``line``, and
    with ``header`` given it holds the rows after that header row.  With
    ``more``, the file goes on after the piece: a last row that the piece's
    end cuts inside a quoted cell is not yielded, and ``cut`` is set.
    ``done`` counts the piece's lines that hold the rows read so far, the
    header row included, so the cut row starts on line ``done`` of the piece.
    """

    def __init__(self, source: str | TextIO, header: Sequence[str] | None = None,
                 line: int = 1, more: bool = False):
        # a piece at a time: io.StringIO stores its text at 4 bytes a character
        lines = (io.StringIO(piece, newline="") for piece in pieces(source))
        self.cut = self._ended = False
        self._before, self.done = line - 1, 0
        self._reader = csv.reader(itertools.chain(itertools.chain.from_iterable(lines),
                                                  self._end()))
        self._rows = self._read(header, more)
        self.header: Sequence[str] | None = next(self._rows)

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
            self.done = 0 if self.cut else self._reader.line_num
            yield header
            width = len(header or ())
            for row in self._reader:
                self.line = self._before + self.done + 1
                if more and self._ended:  # the piece ends inside this row's quoted cell
                    self.cut = True
                    return
                self.done = self._reader.line_num
                if len(row) == width and row:
                    yield row
                elif row:
                    raise self.error(f"expected {width} columns, got {len(row)}")
        except csv.Error as exc:
            self.line = self._before + self.done + 1
            raise self.error(str(exc)) from None

    def error(self, message: str) -> CsvFormatError:
        """A format error naming ``line``."""
        return CsvFormatError(f"line {self.line}: {message}")

    def id_cell(self, cell: str, name: str) -> str:
        """An id: ``cell`` stripped, which must not be empty."""
        jid = cell.strip()
        if not jid:
            raise self.error(f"empty {name}")
        return jid

    def int_cell(self, cell: str, name: str, minimum: int | None = None) -> int:
        """An integer: an optional ``-``, then ASCII digits, within int64
        and at least ``minimum``; surrounding whitespace and leading zeros
        are ignored, at any length."""
        text = cell.strip()
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise self.error(f"malformed {name} {text!r}")
        sign, digits = text[:-len(digits)], digits.lstrip("0") or "0"
        # int64 holds at most 19 digits, and int() refuses over 4,300
        value = int(sign + digits) if len(digits) < 20 else 2**63
        if not -2**63 <= value < 2**63:
            raise self.error(out_of_range(name, sign + digits))
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
        # float() also reads a leading ``+``, ``_`` and non-ASCII digits
        if text.isascii() and text[:1] != "+" and "_" not in text:
            try:
                value = float(text)
                if math.isfinite(value):
                    return value
            except ValueError:
                pass
        raise self.error(f"malformed {name} {text!r}")


def parse_rows(source: str | TextIO, header: Sequence[str], reader) -> list[np.ndarray]:
    """The columns ``reader`` reads from ``source`` (text or an open file),
    which must start with the ``header`` row: the columns and every error
    are those of the reader's ``rows`` over the whole source.  A missing or
    different header row is a format error on line 1.

    ``reader`` holds what a file's rows have taught it, and two methods:

    * ``kernel(text, padded, raw, starts, lengths)``: the columns of the
      rows of a chunk of plain rows split by ``_cells``, or None where it
      cannot show that ``rows`` reads the same.  It may decline after
      coding the chunk's ids only where ``rows`` fails on the chunk, which
      codes them again in the same order, so a kernel has nothing to undo;
    * ``rows(rows)``: the columns of the rows of a ``CsvRows``, read one at
      a time.

    Every source, whatever its length, is read a piece (``pieces``) at a
    time, never whole: after an exact header line the kernel answers or
    declines each piece that ``_cells`` splits, ``rows`` reads any other,
    and a row that a piece's end cuts inside a quoted cell is read with the
    next piece.  An error is raised from the piece where it occurs, with its
    line, once the rest of the source is read, so that a later byte that is
    not UTF-8 is the error whatever row before it is faulty.  The integer
    columns come in the narrowest signed type that holds them, written a
    chunk at a time into arrays sized from the source's length (``_size``).
    """
    chunks = pieces(source)
    try:
        return _chunk_columns(chunks, header, reader, _size(source))
    except DataError:
        for _ in chunks:  # the rest of the source
            pass
        raise


def _size(source: str | TextIO) -> int:
    """The length of text, the size of the file an open file reads, or 0
    for a source with no size (``io.StringIO``)."""
    if isinstance(source, str):
        return len(source)
    try:
        return os.fstat(source.fileno()).st_size
    # no fileno (a stream with only read and readline), io.UnsupportedOperation,
    # or a closed file
    except (AttributeError, OSError, ValueError):
        return 0


def _narrow(values: np.ndarray) -> np.ndarray:
    """Signed integer ``values`` in the narrowest signed type that holds
    them; other values as they are."""
    if values.dtype.kind != "i":
        return values
    lo, hi = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    dtype = next(dtype for dtype in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max)
    return values.astype(dtype, copy=False)


def _chunk_columns(chunks: Iterator[str], header: Sequence[str], reader,
                   size: int) -> list[np.ndarray]:
    """The columns ``reader`` reads from the pieces of a file, ``chunks``,
    and then "" for its end: each chunk's integer columns narrowed
    (``_narrow``) and written into one array a column, of the widest chunk's
    type.  The arrays are allocated for the rows of the file's ``size``
    characters (0 where not known) at the rows a character read so far,
    allocated again only where a chunk does not fit, and cut to the rows
    read at the end, so the columns are not held twice.  A chunk is a piece
    after the lines the one before carried: those from the row its end
    cut, at ``CsvRows.done``."""
    header_line = ",".join(header) + "\n"
    head, line = None, 1  # the header row, once read, and the first line of the next chunk
    columns: list[np.ndarray] = []
    held = chars = 0  # the rows written, and the characters of the pieces read
    cut = ""
    for piece in itertools.chain(chunks, ("",)):
        chars += len(piece)
        chunk, cut = cut + piece, ""
        # ``rows`` fails on a header cell over the csv field size limit
        if (line == 1 and chunk.startswith(header_line)
                and max(map(len, header)) <= csv.field_size_limit()):
            head, line, chunk = header, 2, chunk[len(header_line):]
        cells = _cells(chunk, len(header)) if head else None
        block = None if cells is None else reader.kernel(*cells)
        if block is None:
            rows = CsvRows(chunk, head, line, more=bool(piece))
            if rows.cut:  # the piece ends inside the header row
                cut = chunk
                continue
            if head is None:  # the header row just read
                if rows.header is None:
                    raise CsvFormatError("line 1: missing header row")
                if tuple(h.strip() for h in rows.header) != tuple(header):
                    raise CsvFormatError(f"line 1: expected header {','.join(header)}, "
                                         f"got {','.join(rows.header)}")
                head = header
            block = reader.rows(rows)
            if rows.cut:  # the piece ends inside a row: carry its lines to the next
                cut = "".join(itertools.islice(io.StringIO(chunk, newline=""), rows.done, None))
            line += rows.done
        else:
            line += len(cells[3])  # a plain row is one line
        block = [_narrow(values) for values in block]
        columns = columns or [values[:0] for values in block]
        end, room = held + len(block[0]), len(columns[0])
        if end > room:
            # the rows of ``size`` characters at the rows a character read so
            # far, or twice the rows where the size is not known or is passed
            # (a gzip file's is its compressed size)
            room = end * size // chars if chars <= size else 2 * end
            room += room >> 7  # a first estimate a little short would copy every row at the end
        for k, part in enumerate(block):  # each old column freed once copied
            columns[k] = _room(columns[k], held, room, part.dtype)
        for values, part in zip(columns, block):
            values[held:end] = part
        held = end
    for values in columns:
        if values.flags.owndata:  # in place: the room not used is given back
            values.resize(held, refcheck=False)
    return [values[:held] for values in columns]


def _room(values: np.ndarray, held: int, room: int, dtype) -> np.ndarray:
    """``values``, if it has ``room`` rows of a type that holds ``dtype``'s
    values; else a new array of ``room`` rows of the wider of the two types,
    its first ``held`` rows those of ``values``."""
    dtype = np.promote_types(values.dtype, dtype)
    if len(values) == room and values.dtype == dtype:
        return values
    wider = np.empty(room, dtype)
    wider[:held] = values[:held]
    return wider


# the numpy chunk kernels: the plain-chunk grammar and its decoders
_MAX_DIGITS = 18  # every number of up to 18 digits fits int64
_MAX_ID_WORDS = 4  # ids of up to 32 bytes, as 8-byte words
# lets every cell be read as whole words, and every number as _MAX_DIGITS bytes
_PAD = "\0" * max(8 * _MAX_ID_WORDS, _MAX_DIGITS)
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# odd multipliers are invertible mod 2**64: a change to one word of a longer id
# changes the mixed key, bar its top bit
_WORD_MIX = np.array([1, 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
                     dtype=np.uint64)
_LONG_ID = np.uint64(1 << 63)


def _cells(chunk: str, width: int) -> tuple[str, bytes, np.ndarray, np.ndarray,
                                            np.ndarray] | None:
    """``(text, padded, raw, starts, lengths)`` for a chunk of plain rows, or None.

    A plain row has ``width`` ASCII cells within the csv field size limit: no
    quote, no control character but the newline, no blank line, no cell
    that starts or ends with a space (so every cell equals its
    ``strip()``).  ``text`` is the chunk, newline-ended, ``padded`` its
    bytes and ``_PAD``, and ``raw`` those bytes as uint8; the cell in row
    ``i`` and column ``k`` is ``lengths[i, k]`` bytes from ``starts[i, k]``.
    Each chunk is split at its commas and newlines in one pass.
    """
    if not chunk.isascii():
        return None
    if not chunk.endswith("\n"):
        chunk += "\n"
    padded = (chunk + _PAD).encode("ascii")
    raw = np.frombuffer(padded, dtype=np.uint8)
    body = raw[:len(chunk)]
    if (((body < ord(" ")) & (body != ord("\n"))) | (body == ord('"'))).any():
        return None
    ends = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
    rows = len(ends) // width
    at_newline = raw[ends] == ord("\n")
    if (len(ends) != rows * width or not at_newline[width - 1::width].all()
            or np.count_nonzero(at_newline) != rows):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    # an empty cell's neighbours are a separator, or a cell that ends with the space
    if (lengths.max() > csv.field_size_limit()
            or (raw[starts] == ord(" ")).any() or (raw[ends - 1] == ord(" ")).any()):
        return None
    return chunk, padded, raw, starts.reshape(rows, width), lengths.reshape(rows, width)


def _slices(text: str, starts: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The cells ``lengths`` characters from ``starts`` in ``text``."""
    return [text[i:i + n] for i, n in zip(starts.tolist(), lengths.tolist())]


def _same_cells(padded: bytes, a: np.ndarray, b: np.ndarray, lengths_a: np.ndarray,
                lengths_b: np.ndarray) -> np.ndarray:
    """Whether each cell ``lengths_a`` bytes from ``a`` in ``padded`` equals
    the one ``lengths_b`` bytes from ``b``, compared 8 bytes at a time."""
    same = lengths_a == lengths_b
    words = np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))
    last = len(words) - 1  # a cell shorter than k is masked whole, wherever it is read
    for k in range(0, int(lengths_a.max(initial=0)), 8):
        mask = _BYTE_MASKS[np.clip(lengths_a - k, 0, 8)]
        same &= (words[np.minimum(a + k, last)] ^ words[np.minimum(b + k, last)]) & mask == 0
    return same


class _IdCodes:
    """Codes for ids in first-seen order: ``ids`` lists them, ``index`` maps
    each to its code.  The row loop adds one id at a time (``code``), a
    kernel the id cells of a chunk at once (``codes``).

    For a kernel, an id is read as little-endian uint64 words of 8 bytes,
    the bytes past its end masked to zero, which no id byte is, so equal ids
    have equal words.  A one-word id is its own key, with the top bit clear
    (ASCII) and a non-zero first byte; a longer id's key mixes its words and
    sets that bit, and since mixed keys may collide, each such cell is
    checked against the words its key stands for.  So no key is 0, which
    marks an empty slot of the hash table: a power of two of slots, at most
    half full, probed linearly from each key's multiplicative hash.  Every
    cell of a chunk probes at once, one slot a round, so Python code touches
    only ids that no kernel has seen before, which ``index`` may know.
    """

    def __init__(self):
        self.ids: list[str] = []
        self.index: dict[str, int] = {}
        self._keys = np.zeros(1 << 10, dtype=np.uint64)  # each slot's key, 0 if empty
        self._codes = np.full(len(self._keys), -1, dtype=np.int64)  # each slot's id code
        self._words = np.zeros((0, _MAX_ID_WORDS), dtype=np.uint64)  # each code's words

    def code(self, jid: str) -> int:
        """The code of ``jid``: the next one if it is new."""
        code = self.index.setdefault(jid, len(self.ids))
        if code == len(self.ids):
            self.ids.append(jid)
        return code

    def codes(self, text: str, padded: bytes, starts: np.ndarray,
              lengths: np.ndarray) -> np.ndarray | None:
        """The codes of the ids at ``starts`` in ``text``, ``padded`` being its
        ASCII bytes and ``_PAD``; None, having learnt nothing, for an
        empty id, one over 32 bytes, or mixed keys that collide."""
        if lengths.min() < 1 or lengths.max() > 8 * _MAX_ID_WORDS:
            return None
        n_words = -(-int(lengths.max()) // 8)
        windows = np.ndarray((len(text), n_words), dtype="<u8", buffer=padded,
                             strides=(1, 8))  # row i: the words from byte i on
        words = windows[starts]
        words &= _BYTE_MASKS[np.clip(lengths[:, None] - 8 * np.arange(n_words), 0, 8)]
        keys = words[:, 0]
        if n_words > 1:
            mixed = np.bitwise_xor.reduce(words * _WORD_MIX[:n_words], axis=1) | _LONG_ID
            keys = np.where(words[:, 1:].any(axis=1), mixed, keys)
        codes = self._codes[self._find(keys)]
        if n_words > 1:  # a long cell found must have the words of the id its key stands for
            known = np.flatnonzero(((keys & _LONG_ID) != 0) & (codes >= 0))
            stored = self._words[codes[known]]
            if not (stored[:, :n_words] == words[known]).all() or stored[:, n_words:].any():
                return None
        unknown = np.flatnonzero(codes < 0)
        if not unknown.size:
            return codes
        new_keys, first, inverse = np.unique(keys[unknown], return_index=True,
                                             return_inverse=True)
        first = unknown[first]
        if n_words > 1 and (words[first[inverse]] != words[unknown]).any():
            return None  # the mixed keys of two new ids collide
        by_position = np.argsort(first)
        first = first[by_position]
        names = _slices(text, starts[first], lengths[first])  # first seen first
        fresh = [name for name in names if name not in self.index]
        self.index.update(zip(fresh, itertools.count(len(self.ids))))
        self.ids += fresh
        new_codes = np.empty(len(new_keys), dtype=np.int64)
        new_codes[by_position] = list(map(self.index.__getitem__, names))
        codes[unknown] = new_codes[inverse]
        if len(self._words) < len(self.ids):
            self._words = np.concatenate((self._words, np.zeros(
                (len(self.ids) - len(self._words), _MAX_ID_WORDS), dtype=np.uint64)))
        self._words[new_codes[by_position], :n_words] = words[first]
        if 2 * len(self.ids) > len(self._keys):
            self._grow()
        self._insert(new_keys, new_codes)
        return codes

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """Each key's first slot: the top bits of its product with an odd constant."""
        shift = 64 - (len(self._keys).bit_length() - 1)
        return ((keys * _WORD_MIX[1]) >> np.uint64(shift)).astype(np.intp)

    def _find(self, keys: np.ndarray) -> np.ndarray:
        """The slot holding each key, or the empty slot that ends its probe."""
        mask = len(self._keys) - 1
        slots = self._home(keys)
        held = self._keys[slots]
        probing = np.flatnonzero((held != keys) & (held != 0))
        while probing.size:
            slots[probing] = (slots[probing] + 1) & mask
            held = self._keys[slots[probing]]
            probing = probing[(held != keys[probing]) & (held != 0)]
        return slots

    def _insert(self, keys: np.ndarray, codes: np.ndarray) -> None:
        """Store distinct keys that the table lacks, with their codes."""
        while keys.size:
            slots = self._find(keys)
            # of the keys whose probes end at one empty slot, the first takes it
            taken = np.unique(slots, return_index=True)[1]
            self._keys[slots[taken]] = keys[taken]
            self._codes[slots[taken]] = codes[taken]
            rest = np.ones(len(keys), dtype=bool)
            rest[taken] = False
            keys, codes = keys[rest], codes[rest]

    def _grow(self) -> None:
        """Double the table until the ids fill at most half of it, holding
        again every key it holds."""
        size = len(self._keys)
        while 2 * len(self.ids) > size:
            size *= 2
        held = np.flatnonzero(self._keys)
        keys, codes = self._keys[held], self._codes[held]
        self._keys = np.zeros(size, dtype=np.uint64)
        self._codes = np.full(size, -1, dtype=np.int64)
        self._insert(keys, codes)


def _decimal_cells(raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The cells of ``raw`` at ``starts`` as int64, or None unless every one
    is 1-18 ASCII digits: one Horner step per digit position.  ``raw`` holds
    at least ``_MAX_DIGITS`` bytes past the start of its last cell."""
    shortest, width = int(lengths.min()), int(lengths.max())
    if shortest < 1 or width > _MAX_DIGITS:
        return None
    values = np.zeros(len(starts), dtype=np.int64)
    for k in range(width):
        digit = raw[starts + k] - ord("0")  # uint8: a byte below '0' wraps past 9
        inside = slice(None) if k < shortest else lengths > k
        if (digit[inside] > 9).any():
            return None
        values[inside] *= 10
        values[inside] += digit[inside]
    return values


def _six_place_cells(raw: np.ndarray, starts: np.ndarray,
                     lengths: np.ndarray) -> np.ndarray | None:
    """The cells of ``raw`` at ``starts`` as ``float()`` reads them, an empty
    one as NaN, or None unless each is empty or as ``write_scores_csv``
    writes it: an optional ``-``, 1-9 ASCII digits, a point and six digits.
    Their integer ``m`` is below 10**15 < 2**53, so ``m`` and 10**6 are
    exact floats, and IEEE division rounds ``m / 10**6`` as ``float()``
    rounds the text."""
    values = np.full(len(starts), np.nan)
    filled = np.flatnonzero(lengths)
    if not filled.size:  # _decimal_cells needs a cell
        return values
    starts, lengths = starts[filled], lengths[filled]
    negative = raw[starts] == ord("-")
    whole = lengths - 7 - negative  # digits before the point: _decimal_cells declines < 1
    if whole.max() > 9 or (raw[starts + lengths - 7] != ord(".")).any():
        return None
    units = _decimal_cells(raw, starts + negative, whole)
    millionths = _decimal_cells(raw, starts + lengths - 6, np.full(len(starts), 6))
    if units is None or millionths is None:
        return None
    read = (units * 10**6 + millionths) / 10**6
    values[filled] = np.where(negative, -read, read)
    return values
