"""Journal and citation data model, CSV ingestion, and the burger fixture.

All types are immutable after construction and all functions are pure, so
everything here is safe to share across threads.

File formats (UTF-8, comma-delimited, required header row):

* ``journals.csv``  -- ``journal_id,name,fields,year,articles`` with one row
  per (journal, year); ``fields`` is a semicolon-separated list of labels.
* ``citations.csv`` -- ``citing_id,cited_id,citing_year,cited_year,count``.
"""

from __future__ import annotations

import bisect
import csv
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, TextIO

import numpy as np

from ._util import (CsvRows, csv_reader, csv_text, fits_int64, out_of_range, read_text, readonly,
                    text_chunks)
from .errors import ValidationError

JOURNALS_HEADER = ("journal_id", "name", "fields", "year", "articles")
CITATIONS_HEADER = ("citing_id", "cited_id", "citing_year", "cited_year", "count")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _check_writable(what: str, text: str) -> None:
    """A ValidationError unless ``text`` reads back from a CSV cell as itself:
    the readers strip every cell, and a carriage return is written unquoted."""
    if text != text.strip() or "\r" in text:
        raise ValidationError(f"{what} {text!r} cannot be written to CSV and read back "
                              "(it starts or ends with whitespace, or holds a carriage return)")


def _check_journal(journal_id: str, name: str, labels: Collection[str]) -> None:
    """A ValidationError unless the journal's name and field labels can be
    written to journals.csv and read back as themselves."""
    _check_writable(f"journal {journal_id!r} name", name)
    if isinstance(labels, str):
        raise ValidationError(f"journal {journal_id!r} fields must be a set of labels, "
                              f"not the string {labels!r}")
    if any(not f for f in labels):
        raise ValidationError(f"journal {journal_id!r} has an empty field label")
    for label in sorted(labels):
        _check_writable(f"journal {journal_id!r} field label", label)
        if ";" in label:
            raise ValidationError(f"journal {journal_id!r} field label {label!r} holds "
                                  "';', which separates labels in journals.csv")


def _check_ids(ids: tuple[str, ...]) -> None:
    """A ValidationError unless each of ``ids`` is non-empty, listed once and
    can be written to CSV and read back as itself."""
    for jid in ids:
        if not jid:
            raise ValidationError("journal_id must be non-empty")
        _check_writable("journal_id", jid)
    if len(set(ids)) < len(ids):
        repeated = next(jid for jid, n in Counter(ids).items() if n > 1)
        raise ValidationError(f"duplicate journal id {repeated!r}")


def _int64_column(name: str, values, row: str) -> np.ndarray:
    """``values`` as a one-dimensional int64 array, the array itself where it
    is one already.  A value that is not an integer (a float or a bool
    included) raises ValidationError naming the column; one outside int64
    names its ``row`` and position too."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64 and values.ndim == 1:
            return values
        cells = values.tolist()
    else:
        cells = values if isinstance(values, (list, tuple)) else list(values)
    if not all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, cells))):
        odd = next(c for c in cells if not isinstance(c, (int, np.integer)) or isinstance(c, bool))
        raise ValidationError(f"{name} must hold integers, got {odd!r}")
    column = np.array(cells) if cells else np.empty(0, dtype=np.int64)
    if column.dtype != np.int64:  # numpy holds a cell past int64 in another dtype
        for i, cell in enumerate(cells):
            if not fits_int64(cell):
                raise ValidationError(f"{row} {i}: {out_of_range(name, cell)}")
        column = column.astype(np.int64)
    return column


def _check_codes(name: str, codes: np.ndarray, n: int, row: str) -> None:
    """A ValidationError unless every one of the int64 ``codes`` is a
    position in ``n`` ids."""
    if len(codes) and (codes.min() < 0 or codes.max() >= n):
        i = int(np.flatnonzero((codes < 0) | (codes >= n))[0])
        raise ValidationError(f"{row} {i}: {name} code {codes[i]} is not a position "
                              f"in the {n} journal ids")


def _freeze(obj, **attributes) -> None:
    """Set the attributes of a frozen dataclass, arrays made read-only in place."""
    for name, value in attributes.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


_TABLE_ROWS = ("journal", "year", "articles")


@dataclass(frozen=True, init=False, eq=False)
class JournalTable:
    """Journals, their fields and their yearly article counts, stored as columns.

    ``ids`` and ``names`` hold one entry per journal, in table order.
    ``journal`` (a position in ``ids``), ``year`` and ``articles`` are
    read-only int64 columns with one entry per (journal, year) row, sorted by
    journal, then year; a year without a row is absent, which a row of 0
    articles is not.  ``labels`` holds each field label once, sorted, and the
    positions of the journals carrying ``labels[k]`` are
    ``members[offsets[k]:offsets[k + 1]]``, ascending.

    ``JournalTable(ids, names, fields, journal, year, articles)`` checks and
    stores them: ``fields`` holds each journal's set of labels, and the row
    columns may come in any order.
    """

    ids: tuple[str, ...]
    names: tuple[str, ...]
    journal: np.ndarray
    year: np.ndarray
    articles: np.ndarray
    labels: tuple[str, ...]
    offsets: np.ndarray
    members: np.ndarray

    def __init__(self, ids: Iterable[str], names: Iterable[str],
                 fields: Iterable[Collection[str]], journal, year, articles):
        ids, names, fields = tuple(ids), tuple(names), tuple(fields)
        if not len(ids) == len(names) == len(fields):
            raise ValidationError("ids, names and fields must have equal lengths")
        _check_ids(ids)
        for jid, name, labels in zip(ids, names, fields):
            _check_journal(jid, name, labels)
        rows = [_int64_column(name, values, "row")
                for name, values in zip(_TABLE_ROWS, (journal, year, articles))]
        if len({len(values) for values in rows}) > 1:
            raise ValidationError("journal, year and articles must have equal lengths")
        journal, year, articles = rows
        _check_codes("journal", journal, len(ids), "row")
        negative = np.flatnonzero(articles < 0)
        if negative.size:
            raise ValidationError(f"journal {ids[journal[negative[0]]]!r} has a negative "
                                  "article count")
        order = np.lexsort((year, journal))
        journal, year, articles = journal[order], year[order], articles[order]
        repeated = np.flatnonzero((np.diff(journal) == 0) & (np.diff(year) == 0))
        if repeated.size:
            i = repeated[0]
            raise ValidationError(f"duplicate journal_id {ids[journal[i]]!r} for year {year[i]}")
        by_label: dict[str, list[int]] = {}
        for j, journal_labels in enumerate(fields):
            for label in journal_labels:
                by_label.setdefault(label, []).append(j)
        labels = tuple(sorted(by_label))
        _freeze(self, ids=ids, names=names, journal=journal, year=year, articles=articles,
                labels=labels,
                offsets=np.cumsum([0] + [len(by_label[label]) for label in labels],
                                  dtype=np.int64),
                members=np.fromiter(itertools.chain.from_iterable(map(by_label.get, labels)),
                                    dtype=np.int64))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JournalTable):
            return NotImplemented
        # rows and members are in a canonical order, so equal tables give equal columns
        return ((self.ids, self.names, self.labels) == (other.ids, other.names, other.labels)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in (*_TABLE_ROWS, "offsets", "members")))

    @cached_property
    def index(self) -> dict[str, int]:
        return {jid: i for i, jid in enumerate(self.ids)}

    def _labels_by_journal(self) -> list[list[str]]:
        """Each journal's field labels, sorted."""
        labels: list[list[str]] = [[] for _ in self.ids]
        for k, label in enumerate(self.labels):
            for j in self.field_positions(k).tolist():
                labels[j].append(label)
        return labels

    def field_positions(self, k: int) -> np.ndarray:
        """The ascending positions of the journals carrying ``labels[k]``."""
        return self.members[self.offsets[k]:self.offsets[k + 1]]

    def article_counts(self, census_year: int, window: int) -> np.ndarray:
        """Per-journal articles published in the ``window`` years before
        ``census_year``, in table order; a count past int64 raises
        ValidationError naming its journal."""
        lo = census_year - window
        keep = (self.year >= lo) & (self.year < census_year)
        return _int64_sums(self.journal[keep], self.articles[keep], len(self), lambda j, total: (
            f"journal {self.ids[j]!r} published {total} articles in [{lo}, {census_year - 1}], "
            "more than a 64-bit integer holds"))

    def members_of(self, field_label: str) -> tuple[str, ...]:
        """Journals carrying ``field_label`` (cross-listing allowed)."""
        k = bisect.bisect_left(self.labels, field_label)
        if self.labels[k:k + 1] != (field_label,):
            return ()
        return tuple(self.ids[j] for j in self.field_positions(k).tolist())


def _int64_sums(groups: np.ndarray, values: np.ndarray, n: int,
               overflow: Callable[[int, int], str]) -> np.ndarray:
    """Exact read-only int64 sums of the non-negative int64 ``values`` by
    ``groups``, positions below ``n``.  A sum past int64 raises
    ValidationError with the message ``overflow(group, exact_sum)``."""
    sums = np.zeros(n, dtype=np.int64)
    np.add.at(sums, groups, values)  # exact, but wraps past int64 without a word
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
    sums.setflags(write=False)
    return sums


@dataclass(frozen=True)
class CitationRecord:
    citing_id: str
    cited_id: str
    citing_year: int
    cited_year: int
    count: int


_LEDGER_COLUMNS = ("citing", "cited", "citing_year", "cited_year", "count")


@dataclass(frozen=True, init=False, eq=False)
class CitationLedger:
    """Raw dated citation counts, preserved in input order, stored as columns.

    ``ids`` holds each journal id once (the parsers list them in first-seen
    order: citing id, then cited id, row by row); ``citing`` and ``cited``
    are int64 codes into it, and ``citing_year``, ``cited_year`` and
    ``count`` are int64.  Every column is read-only and has one entry per
    record.  ``CitationLedger(ids, citing, cited, citing_year, cited_year,
    count)`` checks and stores them; an int64 array is stored as it is, made
    read-only in place.
    """

    ids: tuple[str, ...]
    citing: np.ndarray
    cited: np.ndarray
    citing_year: np.ndarray
    cited_year: np.ndarray
    count: np.ndarray

    def __init__(self, ids: Iterable[str], citing, cited, citing_year, cited_year, count):
        ids = tuple(ids)
        _check_ids(ids)
        columns = [_int64_column(name, values, "record") for name, values
                   in zip(_LEDGER_COLUMNS, (citing, cited, citing_year, cited_year, count))]
        if len({len(values) for values in columns}) > 1:
            raise ValidationError(", ".join(_LEDGER_COLUMNS) + " must have equal lengths")
        for name, codes in zip(_LEDGER_COLUMNS, columns[:2]):
            _check_codes(name, codes, len(ids), "record")
        count = columns[-1]
        bad = np.flatnonzero(count <= 0)
        if bad.size:
            raise ValidationError(f"citation count must be positive, got {count[bad[0]]}")
        _freeze(self, ids=ids, **dict(zip(_LEDGER_COLUMNS, columns)))

    def __len__(self) -> int:
        return len(self.count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CitationLedger):
            return NotImplemented
        # the stored columns: the same records under ids in another order differ
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _LEDGER_COLUMNS)

    # __iter__, _records and validate yield CitationRecord objects for
    # perfbench/tracing.py, which wraps them; no computation here uses them
    def __iter__(self) -> Iterator[CitationRecord]:
        return self._records(slice(None))

    def _records(self, rows) -> Iterator[CitationRecord]:
        ids = self.ids
        columns = (getattr(self, name)[rows].tolist() for name in _LEDGER_COLUMNS)
        for citing, cited, citing_year, cited_year, count in zip(*columns):
            yield CitationRecord(ids[citing], ids[cited], citing_year, cited_year, count)

    def _table_positions(self, table: JournalTable) -> np.ndarray:
        """Map each ledger code to its journal's position in ``table``.

        Unknown journal ids that some record uses raise ``ValidationError``
        listing all offenders; an id no record uses maps to -1.
        """
        index = table.index
        positions = np.array([index.get(jid, -1) for jid in self.ids], dtype=np.intp)
        missing = positions < 0
        if missing.any():
            used = np.zeros(len(self.ids), dtype=bool)
            used[self.citing] = used[self.cited] = True
            unknown = sorted(jid for jid, bad in zip(self.ids, (missing & used).tolist()) if bad)
            if unknown:
                raise ValidationError("unknown journal ids in ledger: " + ", ".join(unknown))
        return positions

    def validate(self, table: JournalTable) -> tuple[CitationRecord, ...]:
        """Check every record's ids against ``table``; return the suspicious records.

        Unknown journal ids raise ``ValidationError`` listing all offenders.
        Records whose cited_year lies after their citing_year are legal (data
        may be noisy) but are returned so callers can flag them.
        """
        self._table_positions(table)
        return tuple(self._records(self.cited_year > self.citing_year))

    def windowed(self, table: JournalTable, census_year: int, window: int | None,
                 exclude_self: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cited, citing, count)`` of the citations given in ``census_year``.

        Only articles published in the ``window`` years before the census
        year count (any year when ``window`` is None); ``exclude_self`` drops
        self-citations.  ``cited`` and ``citing`` are positions in ``table``;
        unknown journal ids raise ``ValidationError`` listing all offenders.
        """
        positions = self._table_positions(table)
        keep = self.citing_year == census_year
        if window is not None:
            keep &= (self.cited_year >= census_year - window) & (self.cited_year < census_year)
        if exclude_self:
            keep &= self.citing != self.cited
        return positions[self.cited[keep]], positions[self.citing[keep]], self.count[keep]


@dataclass(frozen=True, eq=False)
class CitationMatrix:
    """Windowed citation matrix for one census year, stored as triplets.

    Entry ``k`` says that journal ``col[k]`` gave ``value[k]`` citations in
    the census year to articles journal ``row[k]`` published during the
    window before it.  ``row`` and ``col`` index ``ids``; each position
    appears once, entries are sorted by column, then row, and zeros are
    absent.  ``matrix @ x`` is the matrix-vector product.
    """

    ids: tuple[str, ...]
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    self_cites_excluded: bool

    def __post_init__(self):
        object.__setattr__(self, "row", readonly(self.row, dtype=np.intp))
        object.__setattr__(self, "col", readonly(self.col, dtype=np.intp))
        object.__setattr__(self, "value", readonly(self.value))
        n = len(self.ids)
        if not len(self.row) == len(self.col) == len(self.value):
            raise ValidationError("row, col and value must have equal lengths")
        if ((self.row < 0) | (self.row >= n) | (self.col < 0) | (self.col >= n)).any():
            raise ValidationError(f"matrix entry outside the {n} journals")
        # column-major order is what makes __matmul__ add up each row in a fixed order
        if (np.diff(self.col * n + self.row) <= 0).any():
            raise ValidationError("matrix entries must be unique and sorted by column, then row")
        if not (self.value > 0).all():
            raise ValidationError("stored citation entries must be strictly positive")
        if self.self_cites_excluded and (self.row == self.col).any():
            raise ValidationError("self-citations present despite exclusion flag")

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = len(self.ids)
        if x.shape != (n,):
            raise ValueError(f"vector of shape {x.shape} does not match {n} journals")
        return np.bincount(self.row, weights=self.value * x[self.col], minlength=n)


@dataclass(frozen=True, eq=False)
class PairedObservations:
    """Two aligned numeric series with labels; drives every correlation op."""

    labels: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    x_name: str = "x"
    y_name: str = "y"

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "x", readonly(self.x))
        object.__setattr__(self, "y", readonly(self.y))
        if not (len(self.labels) == len(self.x) == len(self.y)):
            raise ValidationError("labels, x and y must have equal lengths")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def parse_journal_metadata(source: str | TextIO) -> JournalTable:
    """Parse ``journals.csv`` content into a JournalTable.

    Rows for the same journal are merged into one entry (one row per year);
    field memberships are unioned across rows.  A repeated (journal, year)
    pair or a conflicting name is a format error.  Each distinct year and
    article cell is parsed once, and a journal's fields cell again only
    where it differs from the journal's previous one.
    """
    rdr = csv_reader(source, JOURNALS_HEADER, "journals.csv")
    codes: dict[str, int] = {}  # each id to its position
    names: list[str] = []
    field_cells: list[str] = []  # each journal's last fields cell
    labels: list[set[str]] = []
    years: list[dict[int, int]] = []  # each journal's articles by year
    year_of: dict[str, int] = {}
    articles_of: dict[str, int] = {}
    for jid, name, field_list, year_cell, articles_cell in rdr:
        jid, name = rdr.id_cell(jid, "journal_id"), name.strip()
        try:
            year, articles = year_of[year_cell], articles_of[articles_cell]
        except KeyError:  # a cell not seen before
            year = year_of[year_cell] = rdr.int_cell(year_cell, "year")
            articles = articles_of[articles_cell] = rdr.int_cell(articles_cell, "articles",
                                                                 minimum=0)
        j = codes.get(jid)
        if j is None:
            j = codes[jid] = len(names)
            names.append(name)
            field_cells.append(field_list)
            labels.append(_field_labels(field_list))
            years.append({})
        elif names[j] != name:
            raise rdr.error(f"journal {jid!r} renamed ({names[j]!r} -> {name!r})")
        elif field_list != field_cells[j]:
            field_cells[j] = field_list
            labels[j] |= _field_labels(field_list)
        if year in years[j]:
            raise rdr.error(f"duplicate journal_id {jid!r} for year {year}")
        years[j][year] = articles
    sizes = np.fromiter(map(len, years), dtype=np.int64, count=len(years))
    journal = np.repeat(np.arange(len(years), dtype=np.int64), sizes)
    return JournalTable(codes, names, labels, journal, *(
        np.fromiter(itertools.chain.from_iterable(map(method, years)), dtype=np.int64,
                    count=len(journal)) for method in (dict.keys, dict.values)))


def _field_labels(field_list: str) -> set[str]:
    """The labels of a ``fields`` cell."""
    return {f.strip() for f in field_list.split(";") if f.strip()}


def parse_citation_edges(source: str | TextIO) -> CitationLedger:
    """Parse ``citations.csv`` content into a CitationLedger (input order kept).

    A year or count outside the signed 64-bit range is a format error.  A
    plain file is read in numpy columns (see ``_parse_citation_columns``);
    any other input, a faulty one included, is read by the csv row loop, so
    the ledger and every error are the row loop's.
    """
    text = read_text(source)
    ledger = _parse_citation_columns(text)
    if ledger is None:
        rows = csv_reader(text, CITATIONS_HEADER, "citations.csv")
        del text  # the rows free the text once read, before their values are converted
        ledger = _parse_citation_rows(rows)
    return ledger


def _parse_citation_rows(rdr: CsvRows) -> CitationLedger:
    """Parse the rows of ``citations.csv`` with the csv module, one at a time.

    Reads the rows in one pass, interning ids as they appear; each distinct
    id, year and count text is checked once.
    """
    ids: dict[str, int] = {}  # each id to its code
    codes: dict[str, int] = {}  # each id cell's text to its id's code
    years: dict[str, int] = {}
    counts: dict[str, int] = {}
    caches = (codes, codes, years, years, counts)
    values: list[int] = []  # the five values of each row, row after row
    for row in rdr:
        try:
            values += codes[row[0]], codes[row[1]], years[row[2]], years[row[3]], counts[row[4]]
        except KeyError:  # check each cell not seen before; a new id gets the next code
            for k, (name, cell, cache) in enumerate(zip(CITATIONS_HEADER, row, caches)):
                if cell not in cache:
                    cache[cell] = (ids.setdefault(rdr.id_cell(cell, name), len(ids)) if k < 2
                                   else rdr.int_cell(cell, name, minimum=1 if k == 4 else None))
            values += map(dict.__getitem__, caches, row)
    return CitationLedger(ids, *np.array(values, dtype=np.int64).reshape(-1, _COLUMNS).T)


# the vectorised citations.csv reader
_CITATIONS_HEADER_LINE = ",".join(CITATIONS_HEADER) + "\n"
_MAX_DIGITS = 18  # every number of up to 18 digits fits int64
_MAX_ID_WORDS = 4  # ids of up to 32 bytes, as 8-byte words
_PAD = "\0" * 8 * _MAX_ID_WORDS  # lets every cell be read as whole words
_BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# odd multipliers are invertible mod 2**64: a change to one word of a longer id
# changes the mixed key, bar its top bit
_WORD_MIX = np.array([1, 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
                     dtype=np.uint64)
_LONG_ID = np.uint64(1 << 63)
_COLUMNS = len(CITATIONS_HEADER)


def _parse_citation_columns(text: str) -> CitationLedger | None:
    """The ledger ``_parse_citation_rows`` returns for ``text``, or None
    where this reader cannot show that it is the same one.

    It answers only for the exact header line followed by rows of five
    non-empty ASCII cells within the csv field size limit: no quote, no
    control character but the newline, no blank line, no cell that starts
    or ends with a space (so every cell equals its ``strip()``), ids of at
    most 32 bytes, years and counts of 1-18 digits and counts of at least
    1.  Each chunk is split at its commas and newlines in one pass.
    """
    limit = csv.field_size_limit()
    if max(map(len, CITATIONS_HEADER)) > limit:  # the row loop fails on line 1
        return None
    if not (text.isascii() and text.startswith(_CITATIONS_HEADER_LINE)):
        return None
    ids = _IdCodes()
    # one row a line, and a row it answers for has at least 10 characters
    # with its newline (9 if it is the last and has none)
    columns = np.empty((_COLUMNS, min(text.count("\n"), (len(text) + 1) // 10)), dtype=np.int64)
    filled = 0
    for chunk in text_chunks(text, len(_CITATIONS_HEADER_LINE)):
        if not chunk.endswith("\n"):
            chunk += "\n"
        padded = (chunk + _PAD).encode("ascii")
        raw = np.frombuffer(padded, dtype=np.uint8)
        body = raw[:len(chunk)]
        if (((body < ord(" ")) & (body != ord("\n"))) | (body == ord('"'))).any():
            return None
        ends = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
        rows = len(ends) // _COLUMNS
        at_newline = raw[ends] == ord("\n")
        if (len(ends) != rows * _COLUMNS or not at_newline[_COLUMNS - 1::_COLUMNS].all()
                or np.count_nonzero(at_newline) != rows):
            return None
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        lengths = ends - starts
        if (lengths.min() < 1 or lengths.max() > limit
                or (raw[starts] == ord(" ")).any() or (raw[ends - 1] == ord(" ")).any()):
            return None
        starts, lengths = starts.reshape(rows, _COLUMNS), lengths.reshape(rows, _COLUMNS)
        block = columns[:, filled:filled + rows]
        filled += rows
        for column in range(2, _COLUMNS):
            values = _decimal_cells(raw, starts[:, column], lengths[:, column])
            if values is None:
                return None
            block[column] = values
        if block[4].min() < 1:
            return None
        # id cells in first-seen order: the citing id, then the cited id, row by row
        codes = ids.codes(chunk, padded, starts[:, :2].ravel(), lengths[:, :2].ravel())
        if codes is None:
            return None
        block[:2] = codes.reshape(rows, 2).T
    return CitationLedger(ids.ids, *columns[:, :filled])


class _IdCodes:
    """Codes for id cells, chunk by chunk, in first-seen order.

    An id is read as little-endian uint64 words of 8 bytes, the bytes past
    its end masked to zero, which no id byte is, so equal ids have equal
    words.  A one-word id is its own key, with the top bit clear (ASCII); a
    longer id's key mixes its words and sets that bit, and since mixed keys
    may collide, each such cell is checked against the words its key stands
    for.  Keys are looked up in the sorted keys seen so far, so Python code
    touches only ids not seen before.
    """

    def __init__(self):
        self.ids: list[str] = []
        self._keys = np.empty(0, dtype=np.uint64)  # sorted
        self._codes = np.empty(0, dtype=np.int64)  # the id code of each key
        self._words = np.empty((0, _MAX_ID_WORDS), dtype=np.uint64)  # the words of each key

    def codes(self, text: str, padded: bytes, starts: np.ndarray,
              lengths: np.ndarray) -> np.ndarray | None:
        """The codes of the ids at ``starts`` in ``text``, ``padded`` being its
        ASCII bytes and 32 zero bytes; None for an id over 32 bytes, or
        mixed keys that collide."""
        if lengths.max() > 8 * _MAX_ID_WORDS:
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
        order = np.argsort(keys)  # sorted needles make the lookup cache-friendly
        at = np.searchsorted(self._keys, keys[order])
        known = at < len(self._keys)
        known[known] = self._keys[at[known]] == keys[order[known]]
        if not known.all():
            unknown = np.sort(order[~known])
            new_keys, first = np.unique(keys[unknown], return_index=True)
            first = unknown[first]
            by_position = np.argsort(first)
            new_codes = np.empty(len(new_keys), dtype=np.int64)
            new_codes[by_position] = np.arange(len(self.ids), len(self.ids) + len(new_keys))
            self.ids.extend(text[i:i + n] for i, n in zip(starts[first[by_position]].tolist(),
                                                          lengths[first[by_position]].tolist()))
            new_words = np.zeros((len(new_keys), _MAX_ID_WORDS), dtype=np.uint64)
            new_words[:, :n_words] = words[first]
            at_new = np.searchsorted(self._keys, new_keys)
            self._keys = np.insert(self._keys, at_new, new_keys)
            self._codes = np.insert(self._codes, at_new, new_codes)
            self._words = np.insert(self._words, at_new, new_words, axis=0)
            at = np.searchsorted(self._keys, keys[order])
        if n_words > 1:
            known_words = self._words[at]
            if not ((known_words[:, :n_words] == words[order]).all()
                    and not known_words[:, n_words:].any()):
                return None
        codes = np.empty(len(order), dtype=np.int64)
        codes[order] = self._codes[at]
        return codes


def _decimal_cells(raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The cells of ``raw`` at ``starts`` as int64, or None unless every one
    is 1-18 ASCII digits: one Horner step per digit position.  ``raw`` holds
    at least ``_MAX_DIGITS`` bytes past the start of its last cell."""
    shortest, width = int(lengths.min()), int(lengths.max())
    if width > _MAX_DIGITS:
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


def write_journal_metadata(table: JournalTable) -> str:
    """Serialize a JournalTable back to journals.csv text (round-trip safe).

    journals.csv holds a journal only on its year rows, so a journal without
    one raises ValidationError.
    """
    rowless = np.flatnonzero(np.bincount(table.journal, minlength=len(table)) == 0)
    if rowless.size:
        raise ValidationError(f"journal {table.ids[rowless[0]]!r} has no year rows, so "
                              "journals.csv cannot hold it")
    field_lists = [";".join(labels) for labels in table._labels_by_journal()]
    cells = (np.array(column, dtype=object)[table.journal].tolist()
             for column in (table.ids, table.names, field_lists))
    return csv_text(JOURNALS_HEADER, zip(*cells, table.year.tolist(), table.articles.tolist()))


def write_citation_edges(ledger: CitationLedger) -> str:
    """Serialize a CitationLedger back to citations.csv text.  It reads back
    as an equal ledger when ``ids`` lists every id a record uses, in
    first-seen order, as the parsers list them."""
    ids = np.array(ledger.ids, dtype=object)
    return csv_text(CITATIONS_HEADER, zip(
        ids[ledger.citing].tolist(), ids[ledger.cited].tolist(),
        *(getattr(ledger, name).tolist() for name in _LEDGER_COLUMNS[2:])))


# ---------------------------------------------------------------------------
# citation matrix
# ---------------------------------------------------------------------------

def build_citation_matrix(ledger: CitationLedger, table: JournalTable, census_year: int,
                          window: int, exclude_self: bool) -> CitationMatrix:
    """Aggregate ledger records into the windowed citation matrix.

    Only records with ``citing_year == census_year`` and a cited year inside
    ``[census_year - window, census_year - 1]`` contribute; everything else
    is silently ignored (ledgers legitimately span many years).  Journals
    with no in-window activity keep their all-zero rows and columns.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    cited, citing, count = ledger.windowed(table, census_year, window, exclude_self)
    n = len(table)
    # keys in column-major order; the inverse sums repeated (cited, citing) pairs
    keys, inverse = np.unique(citing * n + cited, return_inverse=True)
    value = np.bincount(inverse, weights=count, minlength=len(keys))
    col, row = np.divmod(keys, n)
    return CitationMatrix(table.ids, row, col, value, exclude_self)


# ---------------------------------------------------------------------------
# embedded fixture: Big Mac price vs hourly wage, 22 countries
# ---------------------------------------------------------------------------

# (country, burger price, mean hourly wage), both in local currency,
# ordered by purchasing power (wage / price), highest first.
_BIGMAC_ROWS = (
    ("Denmark", 24.75, 211.13),
    ("Australia", 3.00, 19.86),
    ("New Zealand", 3.60, 21.94),
    ("Switzerland", 6.30, 37.85),
    ("United States", 2.54, 14.32),
    ("Britain/UK", 1.99, 11.15),
    ("Germany", 2.61, 14.32),
    ("Canada", 3.33, 16.78),
    ("Singapore", 3.30, 15.65),
    ("Sweden", 24.00, 110.90),
    ("Hong Kong", 10.70, 44.26),
    ("Spain", 2.37, 8.59),
    ("South Africa", 9.70, 30.86),
    ("France", 2.82, 8.50),
    ("Poland", 5.90, 11.80),
    ("Hungary", 399.00, 704.34),
    ("Czech Rep.", 56.00, 85.34),
    ("Brazil", 3.60, 4.58),
    ("South Korea", 3000.00, 3134.00),
    ("Mexico", 21.90, 17.61),
    ("Thailand", 55.00, 31.69),
    ("China", 9.90, 5.56),
)


def bigmac_fixture() -> PairedObservations:
    """The 22-country burger-price / hourly-wage table as paired observations."""
    return PairedObservations(
        labels=tuple(r[0] for r in _BIGMAC_ROWS),
        x=[r[1] for r in _BIGMAC_ROWS],
        y=[r[2] for r in _BIGMAC_ROWS],
        x_name="burger_price",
        y_name="hourly_wage",
    )


def bigmac_csv() -> str:
    """The fixture as CSV text with header ``country,burger_price,hourly_wage``."""
    return csv_text(("country", "burger_price", "hourly_wage"), (
        [country, f"{price:.2f}", f"{wage:.2f}"] for country, price, wage in _BIGMAC_ROWS))
