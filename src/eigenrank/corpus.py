"""Journal and citation data model, CSV ingestion, and the citation-matrix build.

The public types are immutable after construction and the public functions
are pure, so their values are safe to share across threads; a reader class
holds one parse's state.

File formats (UTF-8, comma-delimited, required header row):

* ``journals.csv``  -- ``journal_id,name,fields,year,articles`` with one row
  per (journal, year); ``fields`` is a semicolon-separated list of labels.
* ``citations.csv`` -- ``citing_id,cited_id,citing_year,cited_year,count``.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator, TextIO

import numpy as np

from ._util import (CsvRows, _blocks, _compress, _decimal_cells, _IdCodes, _int64_sums, _narrow,
                    _same_cells, _slices, _sums, column, csv_text, parse_rows, set_fields)
from .errors import ValidationError

JOURNALS_HEADER = ("journal_id", "name", "fields", "year", "articles")
CITATIONS_HEADER = ("citing_id", "cited_id", "citing_year", "cited_year", "count")


def __getattr__(name: str):  # perfbench/analysis.py still reads corpus.PairedObservations
    if name != "PairedObservations":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .stats import PairedObservations
    return PairedObservations


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _check_writable(what: str, text: str, jid: str = "") -> None:
    """A ValidationError naming ``text`` as ``what``, with ``{!r}`` standing for
    ``jid``, unless ``text`` reads back from a CSV cell as itself: the readers
    strip every cell, and a carriage return is written unquoted."""
    if text != text.strip() or "\r" in text:
        raise ValidationError(f"{what.format(jid)} {text!r} cannot be written to CSV and read back "
                              "(it starts or ends with whitespace, or holds a carriage return)")


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


def _check_codes(name: str, codes: np.ndarray, n: int, row: str) -> None:
    """A ValidationError unless every one of the integer ``codes`` is a
    position in ``n`` ids."""
    if len(codes) and (codes.min() < 0 or codes.max() >= n):
        i = int(np.flatnonzero((codes < 0) | (codes >= n))[0])
        raise ValidationError(f"{row} {i}: {name} code {codes[i]} is not a position "
                              f"in the {n} journal ids")


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
        # each journal's name, then its labels in sorted order, each checked
        # where it first appears: a label already in by_label has passed
        by_label: dict[str, list[int]] = {}
        for j, (jid, name, journal_labels) in enumerate(zip(ids, names, fields)):
            _check_writable("journal {!r} name", name, jid)
            if isinstance(journal_labels, str):
                raise ValidationError(f"journal {jid!r} fields must be a set of labels, "
                                      f"not the string {journal_labels!r}")
            for label in sorted(set(journal_labels)):  # a label listed twice is one
                if label not in by_label:
                    if not label:
                        raise ValidationError(f"journal {jid!r} has an empty field label")
                    _check_writable("journal {!r} field label", label, jid)
                    if ";" in label:
                        raise ValidationError(f"journal {jid!r} field label {label!r} holds "
                                              "';', which separates labels in journals.csv")
                    by_label[label] = []
                by_label[label].append(j)
        rows = [column(values, np.int64, name, "row")
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
        if (order[1:] < order[:-1]).any():  # rows handed over in order are kept as they are
            journal, year, articles = (column(values[order], np.int64) for values in rows)
        repeated = np.flatnonzero((np.diff(journal) == 0) & (np.diff(year) == 0))
        if repeated.size:
            i = repeated[0]
            raise ValidationError(f"duplicate journal_id {ids[journal[i]]!r} for year {year[i]}")
        labels = tuple(sorted(by_label))
        set_fields(self, ids=ids, names=names, journal=journal, year=year, articles=articles,
                   labels=labels,
                   offsets=column(np.cumsum([0] + [len(by_label[label]) for label in labels]),
                                  np.int64),
                   members=column(np.fromiter(itertools.chain.from_iterable(
                       map(by_label.get, labels)), dtype=np.int64), np.int64))

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
    are codes into it.  Every column is a read-only signed integer array
    with one entry per record; the parsers store each in the narrowest
    signed type that holds its values.  ``CitationLedger(ids, citing, cited,
    citing_year, cited_year, count)`` checks and stores them: a signed
    integer array of any width is stored as it is, made read-only in place,
    and anything else is converted to int64.
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
        columns = [column(values, np.signedinteger, name, "record") for name, values
                   in zip(_LEDGER_COLUMNS, (citing, cited, citing_year, cited_year, count))]
        if len({len(values) for values in columns}) > 1:
            raise ValidationError(", ".join(_LEDGER_COLUMNS) + " must have equal lengths")
        for name, codes in zip(_LEDGER_COLUMNS, columns[:2]):
            _check_codes(name, codes, len(ids), "record")
        count = columns[-1]
        bad = np.flatnonzero(count <= 0)
        if bad.size:
            raise ValidationError(f"citation count must be positive, got {count[bad[0]]}")
        set_fields(self, ids=ids, **dict(zip(_LEDGER_COLUMNS, columns)))

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
        """Map each ledger code to its journal's position in ``table`` (narrowed).

        Unknown journal ids that some record uses raise ``ValidationError``
        listing all offenders; an id no record uses maps to -1.
        """
        index = table.index
        positions = _narrow(np.array([index.get(jid, -1) for jid in self.ids], dtype=np.int64))
        missing = positions < 0
        if missing.any():
            used = np.zeros(len(self.ids), dtype=bool)
            used[self.citing] = used[self.cited] = True
            unknown = sorted(jid for jid, bad in zip(self.ids, (missing & used).tolist()) if bad)
            if unknown:
                raise ValidationError("unknown journal ids in ledger: "
                                      + ", ".join(map(repr, unknown)))
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
                 exclude_self: bool, citing: bool = True) -> tuple[np.ndarray, ...]:
        """``(citing, cited, count)`` of the citations given in ``census_year``,
        or ``(cited, count)`` without ``citing``, which is then not gathered.

        The records that count, in ledger order: articles published in the
        ``window`` years before the census year (any year when ``window`` is
        None), self-citations dropped when ``exclude_self``.  ``citing`` and
        ``cited`` are narrowed positions in ``table``; unknown journal ids
        raise ``ValidationError`` listing all offenders.
        """
        positions = self._table_positions(table)
        keep = self.citing_year == census_year
        if window is not None:
            keep &= (self.cited_year >= census_year - window) & (self.cited_year < census_year)
        if exclude_self:
            keep &= self.citing != self.cited
        codes = (self.citing, self.cited) if citing else (self.cited,)
        *codes, count = _compress(keep, *codes, self.count)
        return (*(positions[c] for c in codes), count)


@dataclass(frozen=True, eq=False)
class CitationMatrix:
    """Windowed citation matrix for one census year, stored as triplets.

    Entry ``k`` says that journal ``col[k]`` gave ``value[k]`` citations in
    the census year to articles journal ``row[k]`` published during the
    window before it.  ``row`` and ``col`` are positions in ``ids`` stored
    as the ledger stores its columns (any signed width); each position
    appears once, entries are sorted by column, then row, and zeros are
    absent.  ``matrix @ x`` is the matrix-vector product.
    """

    ids: tuple[str, ...]
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    self_cites_excluded: bool

    def __post_init__(self):
        row, col = (column(getattr(self, name), np.signedinteger, name, "entry")
                    for name in ("row", "col"))
        set_fields(self, row=row, col=col, value=column(self.value, float))
        n = len(self.ids)
        if not len(row) == len(col) == len(self.value):
            raise ValidationError("row, col and value must have equal lengths")
        if ((row < 0) | (row >= n) | (col < 0) | (col >= n)).any():
            raise ValidationError(f"matrix entry outside the {n} journals")
        # column-major order makes __matmul__ add up each row in a fixed order
        if ((col[1:] < col[:-1]) | ((col[1:] == col[:-1]) & (row[1:] <= row[:-1]))).any():
            raise ValidationError("matrix entries must be unique and sorted by column, then row")
        if not (self.value > 0).all():
            raise ValidationError("stored citation entries must be strictly positive")
        if self.self_cites_excluded and (row == col).any():
            raise ValidationError("self-citations present despite exclusion flag")

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = len(self.ids)
        if x.shape != (n,):
            raise ValueError(f"vector of shape {x.shape} does not match {n} journals")
        out = np.zeros(n)  # each row's products added in entry order, as bincount adds
        for block in _blocks(len(self.value)):  # take and intp indices: the fast paths
            np.add.at(out, self.row[block].astype(np.intp),
                      x.take(self.col[block]) * self.value[block])
        return out


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def parse_journal_metadata(source: str | TextIO) -> JournalTable:
    """Parse ``journals.csv`` content into a JournalTable.

    Rows for the same journal are merged into one entry (one row per year);
    field memberships are unioned across rows.  A repeated (journal, year)
    pair or a conflicting name is a format error.  Chunks of plain rows are
    read in numpy columns (``_JournalRows.kernel``), the rest by the csv row
    loop, and the table and every error are the row loop's.
    """
    reader = _JournalRows()
    columns = parse_rows(source, JOURNALS_HEADER, reader)
    return JournalTable(reader.ids.ids, reader.names, reader.labels, *columns)


class _JournalRows:
    """The reader of journals.csv rows for ``parse_rows``: (journal, year,
    articles) columns, ``journal`` coding each row's id through ``ids``.

    ``names``, ``field_cells`` (the last fields cell) and ``labels`` hold
    one entry per journal.  Each distinct year, article and fields cell is
    parsed once, and a journal's fields cell is looked up again only where
    it differs from the journal's previous one.  ``pairs`` holds, sorted,
    the key ``journal << 32 | code`` of every (journal, year) read, the
    year's code taken from ``year_codes``, after -1, a key no row has; it
    is the start of a buffer that doubles as it fills, since an array
    allocated anew for each chunk fragments the heap that later parses use.
    """

    def __init__(self):
        self.ids = _IdCodes()
        self.names: list[str] = []
        self.field_cells: list[str] = []
        self.labels: list[frozenset[str]] = []
        self.labels_of: dict[str, frozenset[str]] = {}  # each fields cell's labels
        self.year_codes: dict[int, int] = {}
        self._buffer = np.full(1 << 10, -1, dtype=np.int64)
        self.pairs = self._buffer[:1]
        self.year_of: dict[str, int] = {}
        self.articles_of: dict[str, int] = {}

    def kernel(self, text: str, padded: bytes, raw: np.ndarray, starts: np.ndarray,
               lengths: np.ndarray) -> tuple[np.ndarray, ...] | None:
        year, articles = (_decimal_cells(raw, starts[:, k], lengths[:, k]) for k in (3, 4))
        if year is None or articles is None:
            return None
        journal = self.ids.codes(text, padded, starts[:, 0], lengths[:, 0])
        if journal is None:
            return None
        # each row but a journal's first in the chunk, and the journal's row before it
        order = np.argsort(journal, kind="stable")
        later = np.flatnonzero(journal[order[1:]] == journal[order[:-1]]) + 1
        rows, before = order[later], order[later - 1]
        same_name, same_fields = (_same_cells(padded, starts[rows, k], starts[before, k],
                                              lengths[rows, k], lengths[before, k])
                                  for k in (1, 2))
        # only a journal's first row in the chunk, or a changed fields cell, reaches Python
        firsts = np.delete(order, later)  # in code order
        known = journal[firsts] < len(self.names)
        merged = np.concatenate((firsts[known], np.sort(rows[~same_fields])))
        updates = list(zip(journal[merged].tolist(), *(
            _slices(text, starts[merged, k], lengths[merged, k]) for k in (1, 2))))
        distinct, inverse = np.unique(year, return_inverse=True)
        keys = np.sort(journal << 32 | np.array(
            [self._year_code(y) for y in distinct.tolist()], dtype=np.int64)[inverse])
        at = np.searchsorted(self.pairs, keys)
        if (not same_name.all() or any(self._renamed(j, name) for j, name, _ in updates)
                or (keys[1:] == keys[:-1]).any() or (self.pairs.take(at, mode="clip") == keys).any()):
            return None  # a renamed journal or a repeated year: rows() names its line
        new = firsts[~known]
        self._add(*(_slices(text, starts[new, k], lengths[new, k]) for k in (1, 2)))
        for update in updates:
            self._merge(*update)
        self._pair(keys)
        return journal, year, articles

    def rows(self, rdr: CsvRows) -> np.ndarray:
        values: list[int] = []  # the journal, year and articles of each row, row after row
        keys: set[int] = set()
        for jid, name, field_list, year_cell, articles_cell in rdr:
            jid, name = rdr.id_cell(jid, "journal_id"), name.strip()
            if "\r" in name or "\r" in field_list:  # one at a label's edge is stripped
                for what, text in [("name", name)] + [
                        ("field label", label) for label in sorted(self._labels(field_list))]:
                    if "\r" in text:
                        raise rdr.error(f"journal {jid!r} {what} {text!r} holds a carriage return")
            try:
                year, articles = self.year_of[year_cell], self.articles_of[articles_cell]
            except KeyError:  # a cell not seen before
                year = self.year_of[year_cell] = rdr.int_cell(year_cell, "year")
                articles = self.articles_of[articles_cell] = rdr.int_cell(
                    articles_cell, "articles", minimum=0)
            j = self.ids.code(jid)
            if self._renamed(j, name):
                raise rdr.error(f"journal {jid!r} renamed ({self.names[j]!r} -> {name!r})")
            self._merge(j, name, field_list)
            key = j << 32 | self._year_code(year)
            if key in keys or self.pairs[np.searchsorted(self.pairs, key, side="right") - 1] == key:
                raise rdr.error(f"duplicate journal_id {jid!r} for year {year}")
            keys.add(key)
            values += j, year, articles
        self._pair(np.fromiter(keys, dtype=np.int64, count=len(keys)))
        return np.array(values, dtype=np.int64).reshape(-1, 3).T

    def _year_code(self, year: int) -> int:
        return self.year_codes.setdefault(year, len(self.year_codes))

    def _pair(self, keys: np.ndarray) -> None:
        """Add to ``pairs`` the ``keys`` of rows read, none in it yet."""
        held = len(self.pairs)
        if held + len(keys) > len(self._buffer):
            self._buffer = np.resize(self._buffer, 2 * (held + len(keys)))
        self._buffer[held:held + len(keys)] = keys
        self.pairs = self._buffer[:held + len(keys)]
        self.pairs.sort(kind="stable")  # merges the two sorted runs

    def _renamed(self, j: int, name: str) -> bool:
        """Whether journal ``j`` is known by another name than ``name``."""
        return j < len(self.names) and self.names[j] != name

    def _add(self, names: list[str], field_lists: list[str]) -> None:
        """Add journals, in code order, with their names and fields cells."""
        self.names += names
        self.field_cells += field_lists
        self.labels += map(self._labels, field_lists)

    def _merge(self, j: int, name: str, field_list: str) -> None:
        """Add a row's name and fields cell to journal ``j``, new if ``j`` is
        the next position, and not ``_renamed``."""
        if j == len(self.names):
            self._add([name], [field_list])
        elif field_list != self.field_cells[j]:
            self.field_cells[j] = field_list
            self.labels[j] |= self._labels(field_list)

    def _labels(self, field_list: str) -> frozenset[str]:
        """The labels of a ``fields`` cell."""
        labels = self.labels_of.get(field_list)
        if labels is None:
            labels = self.labels_of[field_list] = frozenset(
                f.strip() for f in field_list.split(";") if f.strip())
        return labels


def parse_citation_edges(source: str | TextIO) -> CitationLedger:
    """Parse ``citations.csv`` content into a CitationLedger (input order kept).

    A year or count outside the signed 64-bit range is a format error.
    Chunks of plain rows are read in numpy columns
    (``_CitationRows.kernel``), the rest by the csv row loop, and the ledger
    and every error are the row loop's.
    """
    reader = _CitationRows()
    columns = parse_rows(source, CITATIONS_HEADER, reader)
    return CitationLedger(reader.ids.ids, *columns)


_COLUMNS = len(CITATIONS_HEADER)


class _CitationRows:
    """The reader of citations.csv rows for ``parse_rows``: five integer
    columns, ``ids`` coding the ids in first-seen order (the citing id, then
    the cited id, row by row).  The row loop checks each distinct id, year
    and count text once."""

    def __init__(self):
        self.ids = _IdCodes()
        self.codes: dict[str, int] = {}  # each id cell's text to its id's code
        self.years: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def kernel(self, text: str, padded: bytes, raw: np.ndarray, starts: np.ndarray,
               lengths: np.ndarray) -> tuple[np.ndarray, ...] | None:
        numbers = [_decimal_cells(raw, starts[:, k], lengths[:, k]) for k in range(2, _COLUMNS)]
        if any(values is None for values in numbers) or numbers[-1].min() < 1:
            return None
        codes = self.ids.codes(text, padded, *(  # numpy copies a 2-wide strided slice slowly
            np.stack((c[:, 0], c[:, 1]), axis=1).ravel() for c in (starts, lengths)))
        if codes is None:
            return None
        return (*codes.reshape(-1, 2).T, *numbers)

    def rows(self, rdr: CsvRows) -> np.ndarray:
        caches = (self.codes, self.codes, self.years, self.years, self.counts)
        values: list[int] = []  # the five values of each row, row after row
        for row in rdr:
            try:
                values += (self.codes[row[0]], self.codes[row[1]], self.years[row[2]],
                           self.years[row[3]], self.counts[row[4]])
            except KeyError:  # check each cell not seen before; a new id gets the next code
                for k, (name, cell, cache) in enumerate(zip(CITATIONS_HEADER, row, caches)):
                    if cell not in cache:
                        cache[cell] = (self.ids.code(rdr.id_cell(cell, name)) if k < 2 else
                                       rdr.int_cell(cell, name, minimum=1 if k == 4 else None))
                values += map(dict.__getitem__, caches, row)
        return np.array(values, dtype=np.int64).reshape(-1, _COLUMNS).T


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
    n = len(table)
    citing, cited, count = ledger.windowed(table, census_year, window, exclude_self)
    m = len(count)
    if n * n * m >= 2**63:
        raise ValidationError(f"{n} journals and {m} in-window records overflow 64-bit keys")
    # one in-place sort of the keys (col * n + row) * m + rank, a rank being a record's
    # place among the m, groups the entries, each one's records in ledger order
    keys = np.arange(m, dtype=np.int64)
    for block in _blocks(m):
        keys[block] += (citing[block] * np.int64(n) + cited[block]) * m
    narrow = citing.dtype  # the table positions' type, kept for row and col
    del citing, cited
    keys.sort()
    counts = np.empty_like(count)  # each record's count, in sorted order
    for block in _blocks(m):
        keys[block], rank = np.divmod(keys[block], m)
        counts[block] = count[rank]
    del count
    first = np.ones(m, dtype=bool)  # the records that start an entry
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    [keys] = _compress(first, keys)  # each entry's key, from its first record
    col, row = np.divmod(keys, n, out=(np.empty(len(keys), narrow), np.empty(len(keys), narrow)))
    del keys
    # each entry's counts added in ledger order; the cumsum numbers each record's entry from 1
    value = _sums(np.cumsum(first, dtype=np.min_scalar_type(m)) - 1, counts, len(row), float)
    return CitationMatrix(table.ids, row, col, value, exclude_self)
