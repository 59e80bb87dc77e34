"""Journal and citation data model, CSV ingestion, and the burger fixture.

All types are immutable after construction and all functions are pure, so
everything here is safe to share across threads.

File formats (UTF-8, comma-delimited, required header row):

* ``journals.csv``  -- ``journal_id,name,fields,year,articles`` with one row
  per (journal, year); ``fields`` is a semicolon-separated list of labels.
* ``citations.csv`` -- ``citing_id,cited_id,citing_year,cited_year,count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, TextIO

import numpy as np

from ._util import csv_reader, csv_text, readonly
from .errors import CsvFormatError, ValidationError

JOURNALS_HEADER = ("journal_id", "name", "fields", "year", "articles")
CITATIONS_HEADER = ("citing_id", "cited_id", "citing_year", "cited_year", "count")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JournalEntry:
    """One journal: identity, field memberships, and per-year article counts."""

    journal_id: str
    name: str
    fields: frozenset[str]
    articles_by_year: dict[int, int]


@dataclass(frozen=True)
class JournalTable:
    entries: tuple[JournalEntry, ...]

    def __post_init__(self):
        seen = set()
        for e in self.entries:
            if not e.journal_id:
                raise ValidationError("journal_id must be non-empty")
            if e.journal_id in seen:
                raise ValidationError(f"duplicate journal_id {e.journal_id!r}")
            seen.add(e.journal_id)
            if any(not f for f in e.fields):
                raise ValidationError(f"journal {e.journal_id!r} has an empty field label")
            if any(c < 0 for c in e.articles_by_year.values()):
                raise ValidationError(f"journal {e.journal_id!r} has a negative article count")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(self.entries)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.journal_id for e in self.entries)

    @cached_property
    def index(self) -> dict[str, int]:
        return {jid: i for i, jid in enumerate(self.ids)}

    def get(self, journal_id: str) -> JournalEntry:
        return self.entries[self.index[journal_id]]

    def article_counts(self, census_year: int, window: int) -> np.ndarray:
        """Per-journal articles published in the ``window`` years before
        ``census_year``, in table order."""
        lo = census_year - window
        return readonly([sum(c for y, c in e.articles_by_year.items() if lo <= y < census_year)
                         for e in self.entries], dtype=np.int64)

    def members_of(self, field_label: str) -> tuple[str, ...]:
        """Journals carrying ``field_label`` (cross-listing allowed)."""
        return tuple(e.journal_id for e in self.entries if field_label in e.fields)


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

    ``ids`` holds each journal id once, in first-seen order (citing id, then
    cited id, row by row); ``citing`` and ``cited`` are int64 codes into it,
    and ``citing_year``, ``cited_year`` and ``count`` are int64.  Every column
    is read-only and has one entry per record.  ``CitationLedger(records)``
    builds the columns from ``CitationRecord`` objects, and iterating a
    ledger yields them again.
    """

    ids: tuple[str, ...]
    citing: np.ndarray
    cited: np.ndarray
    citing_year: np.ndarray
    cited_year: np.ndarray
    count: np.ndarray

    def __init__(self, records: Iterable[CitationRecord]):
        codes: dict[str, int] = {}
        rows = [(codes.setdefault(r.citing_id, len(codes)), codes.setdefault(r.cited_id, len(codes)),
                 r.citing_year, r.cited_year, r.count) for r in records]
        try:
            columns = np.array(rows, dtype=np.int64).reshape(-1, len(_LEDGER_COLUMNS)).T
        except OverflowError:
            for i, row in enumerate(rows):
                for name, value in zip(CITATIONS_HEADER[2:], row[2:]):
                    if not _fits_int64(value):
                        raise ValidationError(_out_of_range(f"record {i}", name, value)) from None
            raise
        self._set_columns(tuple(codes), *columns)

    @classmethod
    def _from_columns(cls, ids: tuple[str, ...], *columns) -> CitationLedger:
        ledger = cls.__new__(cls)
        ledger._set_columns(ids, *columns)
        return ledger

    def _set_columns(self, ids: tuple[str, ...], *columns) -> None:
        object.__setattr__(self, "ids", ids)
        for name, values in zip(_LEDGER_COLUMNS, columns):
            object.__setattr__(self, name, readonly(values, dtype=np.int64))
        bad = np.flatnonzero(self.count <= 0)
        if bad.size:
            raise ValidationError(f"citation count must be positive, got {self.count[bad[0]]}")
        if "" in ids:
            raise ValidationError("citation record with empty journal id")

    def __len__(self) -> int:
        return len(self.count)

    def __iter__(self) -> Iterator[CitationRecord]:
        return self._records(slice(None))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CitationLedger):
            return NotImplemented
        # ids are in first-seen order, so equal record sequences give equal codes
        return self.ids == other.ids and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _LEDGER_COLUMNS)

    def _records(self, rows) -> Iterator[CitationRecord]:
        ids = self.ids
        columns = (getattr(self, name)[rows].tolist() for name in _LEDGER_COLUMNS)
        for citing, cited, citing_year, cited_year, count in zip(*columns):
            yield CitationRecord(ids[citing], ids[cited], citing_year, cited_year, count)

    def _table_positions(self, table: JournalTable) -> np.ndarray:
        """Map each ledger code to its journal's position in ``table``.

        Unknown journal ids raise ``ValidationError`` listing all offenders.
        """
        index = table.index
        positions = np.array([index.get(jid, -1) for jid in self.ids], dtype=np.intp)
        unknown = sorted(jid for jid, pos in zip(self.ids, positions.tolist()) if pos < 0)
        if unknown:
            raise ValidationError("unknown journal ids in ledger: " + ", ".join(unknown))
        return positions

    def validate(self, table: JournalTable) -> tuple[CitationRecord, ...]:
        """Check every id against ``table``; return the suspicious records.

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

    def to_dict(self) -> dict[tuple[str, str], float]:
        """(cited_id, citing_id) -> count view, mainly for tests and export."""
        return {(self.ids[i], self.ids[j]): v for i, j, v in
                zip(self.row.tolist(), self.col.tolist(), self.value.tolist())}


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

def _int_field(value: str, what: str, line: int, minimum: int | None = None) -> int:
    """``value`` as an int; malformed text or a value outside int64 is a format error."""
    try:
        n = int(value)
    except ValueError:
        raise CsvFormatError(f"line {line}: malformed {what} {value!r}") from None
    if not _fits_int64(n):
        raise CsvFormatError(_out_of_range(f"line {line}", what, n))
    if minimum is not None and n < minimum:
        raise CsvFormatError(f"line {line}: {what} must be >= {minimum}, got {n}")
    return n

def _fits_int64(value: int) -> bool:
    return -2**63 <= value < 2**63

def _out_of_range(where: str, name: str, value: int) -> str:
    return f"{where}: {name} {value} out of range (not a 64-bit integer)"

def _citation_numbers(row: list[str], line: int, cache: dict[str, int]) -> list[int]:
    """The year and count cells of a citations.csv row as ints, each cell's text
    parsed once and kept in ``cache``."""
    values = []
    for name, cell in zip(CITATIONS_HEADER[2:], row[2:]):
        if cell not in cache:
            cache[cell] = _int_field(cell.strip(), name, line)
        values.append(cache[cell])
    return values


def parse_journal_metadata(source: str | TextIO) -> JournalTable:
    """Parse ``journals.csv`` content into a JournalTable.

    Rows for the same journal are merged into one entry (one row per year);
    field memberships are unioned across rows.  A repeated (journal, year)
    pair or a conflicting name is a format error.
    """
    rdr = csv_reader(source, JOURNALS_HEADER, "journals.csv")
    names: dict[str, str] = {}  # insertion-ordered: journals in first-seen order
    fields: dict[str, set[str]] = {}
    years: dict[str, dict[int, int]] = {}
    for row in rdr:
        if not row:
            continue
        line = rdr.line_num
        if len(row) != len(JOURNALS_HEADER):
            raise CsvFormatError(f"line {line}: expected {len(JOURNALS_HEADER)} columns, got {len(row)}")
        jid, name, field_list, year_s, articles_s = (c.strip() for c in row)
        if not jid:
            raise CsvFormatError(f"line {line}: empty journal_id")
        year = _int_field(year_s, "year", line)
        articles = _int_field(articles_s, "articles", line, minimum=0)
        if jid not in names:
            names[jid] = name
            fields[jid] = set()
            years[jid] = {}
        elif names[jid] != name:
            raise CsvFormatError(f"line {line}: journal {jid!r} renamed ({names[jid]!r} -> {name!r})")
        if year in years[jid]:
            raise CsvFormatError(f"line {line}: duplicate journal_id {jid!r} for year {year}")
        years[jid][year] = articles
        fields[jid] |= {f.strip() for f in field_list.split(";") if f.strip()}
    return JournalTable(tuple(
        JournalEntry(jid, name, frozenset(fields[jid]), years[jid]) for jid, name in names.items()))


def parse_citation_edges(source: str | TextIO) -> CitationLedger:
    """Parse ``citations.csv`` content into a CitationLedger (input order kept).

    Fills the ledger's columns in one pass, interning ids as they appear.
    A year or count outside the signed 64-bit range is a format error.
    """
    rdr = csv_reader(source, CITATIONS_HEADER, "citations.csv")
    codes: dict[str, int] = {}
    numbers: dict[str, int] = {}  # year and count cells repeat, so each text is parsed once
    columns: tuple[list[int], ...] = tuple([] for _ in CITATIONS_HEADER)
    citing_col, cited_col, citing_year_col, cited_year_col, count_col = columns
    for row in rdr:
        if not row:
            continue
        if len(row) != len(CITATIONS_HEADER):
            raise CsvFormatError(f"line {rdr.line_num}: expected {len(CITATIONS_HEADER)} "
                                 f"columns, got {len(row)}")
        citing, cited, citing_year, cited_year, count = row
        citing, cited = citing.strip(), cited.strip()
        if not citing or not cited:
            raise CsvFormatError(f"line {rdr.line_num}: empty journal id")
        try:
            citing_year, cited_year, count = numbers[citing_year], numbers[cited_year], numbers[count]
        except KeyError:
            citing_year, cited_year, count = _citation_numbers(row, rdr.line_num, numbers)
        if count < 1:
            raise CsvFormatError(f"line {rdr.line_num}: count must be >= 1, got {count}")
        citing_col.append(codes.setdefault(citing, len(codes)))
        cited_col.append(codes.setdefault(cited, len(codes)))
        citing_year_col.append(citing_year)
        cited_year_col.append(cited_year)
        count_col.append(count)
    return CitationLedger._from_columns(tuple(codes), *columns)


def write_journal_metadata(table: JournalTable) -> str:
    """Serialize a JournalTable back to journals.csv text (round-trip safe)."""
    def rows():
        for e in table:
            field_list = ";".join(sorted(e.fields))
            for year in sorted(e.articles_by_year):
                yield [e.journal_id, e.name, field_list, year, e.articles_by_year[year]]
    return csv_text(JOURNALS_HEADER, rows())


def write_citation_edges(ledger: CitationLedger) -> str:
    """Serialize a CitationLedger back to citations.csv text (round-trip safe)."""
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
