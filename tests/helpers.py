"""Shared test oracles and factories.

Everything here recomputes results through an independent route (dense
linear algebra, brute-force enumeration) so the library's sparse/iterative
paths are checked against genuinely different code.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import combinations

import numpy as np
from scipy.stats import rankdata

from eigenrank import (CitationLedger, CsvFormatError, JournalTable, MetricScores,
                       ValidationError)
from eigenrank.corpus import CITATIONS_HEADER, JOURNALS_HEADER
from eigenrank.metrics import SCORES_HEADER
from eigenrank.stats import pearson_r


def _columns(rows, width):
    """``rows`` of ``width`` cells as ``width`` column lists."""
    return [list(column) for column in zip(*rows)] or [[] for _ in range(width)]


def journal_table(journals) -> JournalTable:
    """A JournalTable of ``(journal_id, name, fields, {year: articles})``
    tuples, in table order."""
    journals = list(journals)
    rows = [(j, year, articles) for j, (*_, by_year) in enumerate(journals)
            for year, articles in by_year.items()]
    return JournalTable(*_columns(journals, 4)[:3], *_columns(rows, 3))


def _refuse_unwritable(jid, what, text):
    """A ValidationError unless ``text``, journal ``jid``'s ``what``, reads
    back from a CSV cell as itself: the readers strip every cell, and a
    carriage return ends a line."""
    if text != text.strip() or "\r" in text:
        raise ValidationError(f"journal {jid!r} {what} {text!r} cannot be written to CSV and "
                              "read back (it starts or ends with whitespace, or holds a "
                              "carriage return)")


def reference_label_index(ids, names, fields):
    """The ``(labels, offsets, members)`` of the JournalTable of journals
    ``ids`` with these ``names`` and ``fields``, as lists, gathered in one
    dict of sets.  Before that, each journal in turn is checked in full: its
    name, a string in place of a set of labels, any empty label, then each
    label in sorted order for whitespace or a carriage return, then for
    ``;``.  The first failure raises the ValidationError JournalTable gives."""
    for jid, name, labels in zip(ids, names, fields):
        _refuse_unwritable(jid, "name", name)
        if isinstance(labels, str):
            raise ValidationError(f"journal {jid!r} fields must be a set of labels, "
                                  f"not the string {labels!r}")
        if "" in labels:
            raise ValidationError(f"journal {jid!r} has an empty field label")
        for label in sorted(labels):
            _refuse_unwritable(jid, "field label", label)
            if ";" in label:
                raise ValidationError(f"journal {jid!r} field label {label!r} holds ';', "
                                      "which separates labels in journals.csv")
    carriers = {}
    for j, labels in enumerate(fields):
        for label in labels:
            carriers.setdefault(label, set()).add(j)
    labels, offsets, members = sorted(carriers), [0], []
    for label in labels:
        members += sorted(carriers[label])
        offsets.append(len(members))
    return labels, offsets, members


def citation_ledger(records) -> CitationLedger:
    """A CitationLedger of ``(citing_id, cited_id, citing_year, cited_year,
    count)`` tuples, in order, its ids in first-seen order as the parsers
    list them."""
    codes = {}
    rows = [(codes.setdefault(citing, len(codes)), codes.setdefault(cited, len(codes)), *rest)
            for citing, cited, *rest in records]
    return CitationLedger(codes, *_columns(rows, 5))


def ledger_rows(ledger):
    """The ledger's records as ``(citing_id, cited_id, citing_year,
    cited_year, count)`` tuples, read from its stored columns."""
    ids = ledger.ids
    return [(ids[citing], ids[cited], *rest) for citing, cited, *rest in zip(
        *(getattr(ledger, name).tolist()
          for name in ("citing", "cited", "citing_year", "cited_year", "count")))]


def _articles_between(table, first_year, end_year):
    """Per-journal articles published in ``first_year <= year < end_year``."""
    counts = [0] * len(table)
    for j, year, articles in zip(table.journal.tolist(), table.year.tolist(),
                                 table.articles.tolist()):
        if first_year <= year < end_year:
            counts[j] += articles
    return np.array(counts, float)


def dense_reference_scores(table, ledger, census_year, window=5, alpha=0.85,
                           exclude_self=True):
    """Dense-path pi/EF/AI from first principles (direct linear solve)."""
    ids = list(table.ids)
    n = len(ids)
    pos = {j: i for i, j in enumerate(ids)}
    z = np.zeros((n, n))
    lo = census_year - window
    for citing, cited, citing_year, cited_year, count in ledger_rows(ledger):
        if citing_year != census_year or not (lo <= cited_year < census_year):
            continue
        if exclude_self and citing == cited:
            continue
        z[pos[cited], pos[citing]] += count
    counts = _articles_between(table, lo, census_year)
    a = counts / counts.sum()
    col = z.sum(axis=0)
    h = np.divide(z, col, out=np.zeros_like(z), where=col > 0)
    dangling = (col == 0).astype(float)
    m = h + np.outer(a, dangling)
    pi = np.linalg.solve(np.eye(n) - alpha * m, (1.0 - alpha) * a)
    s = h @ pi
    ef = 100.0 * s / s.sum()
    ai = np.where(a > 0, 0.01 * ef / a, np.nan)
    return pi, ef, ai


def reference_counts(ledger, table, census_year, window=5, exclude_self=True):
    """Windowed matrix entries, IF and TC from one plain loop over the records.

    Returns ``(matrix, impact_factor, total_citations)``: ``matrix`` holds
    the ``(row, col, value)`` lists of ``CitationMatrix``, the summed
    in-window count that journal ``col`` gave journal ``row``, sorted by
    column, then row; the two arrays follow table order.
    """
    pos = {j: i for i, j in enumerate(table.ids)}
    n = len(pos)
    entries = {}
    cites = np.zeros(n)
    totals = np.zeros(n, dtype=np.int64)
    lo = census_year - window
    for citing, cited, citing_year, cited_year, count in ledger_rows(ledger):
        if citing_year != census_year or (exclude_self and citing == cited):
            continue
        totals[pos[cited]] += count
        if cited_year in (census_year - 1, census_year - 2):
            cites[pos[cited]] += count
        if lo <= cited_year < census_year:
            key = (pos[citing], pos[cited])
            entries[key] = entries.get(key, 0.0) + float(count)
    keys = sorted(entries)
    matrix = ([row for _, row in keys], [col for col, _ in keys], [entries[k] for k in keys])
    n2 = _articles_between(table, census_year - 2, census_year)
    impact = np.full(n, np.nan)
    impact[n2 > 0] = cites[n2 > 0] / n2[n2 > 0]
    return matrix, impact, totals


def _reference_int(text, name, line, minimum=None):
    """``text`` as an integer: an optional minus sign, then ASCII digits of
    any length, leading zeros not counted, within the signed 64-bit range
    and at least ``minimum``."""
    digits = text[1:] if text.startswith("-") else text
    if not digits or any(c not in "0123456789" for c in digits):
        raise CsvFormatError(f"line {line}: malformed {name} {text!r}")
    magnitude = 0
    for c in digits:  # held at 2**64 once past int64, however many digits follow
        magnitude = min(magnitude * 10 + "0123456789".index(c), 2**64)
    value = -magnitude if text.startswith("-") else magnitude
    if not -2**63 <= value < 2**63:
        shown = text[:len(text) - len(digits)] + digits.lstrip("0")
        raise CsvFormatError(f"line {line}: {name} {shown} out of range (not a 64-bit integer)")
    if minimum is not None and value < minimum:
        raise CsvFormatError(f"line {line}: {name} must be >= {minimum}, got {value}")
    return value


def reference_journals(source):
    """journals.csv parsed by one plain ``csv.reader`` loop over the rows:
    every cell stripped and parsed on every row, an id, name or field label
    that holds a carriage return refused on its row, the journals merged in
    dicts and sets and built through ``journal_table``.  Text is read as a
    file opened with ``newline=""``: a line ends at LF, CRLF or CR."""
    reader = csv.reader(io.StringIO(source, newline="") if isinstance(source, str) else source)
    names, fields, years = {}, {}, {}
    start = 1  # the line where the next row starts: an error names its row's first line
    try:
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("line 1: missing header row")
        if [h.strip() for h in header] != list(JOURNALS_HEADER):
            raise CsvFormatError(f"line 1: expected header {','.join(JOURNALS_HEADER)}, "
                                 f"got {','.join(header)}")
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(JOURNALS_HEADER):
                raise CsvFormatError(f"line {line}: expected {len(JOURNALS_HEADER)} columns, "
                                     f"got {len(row)}")
            jid, name, field_list, year_s, articles_s = (c.strip() for c in row)
            if not jid:
                raise CsvFormatError(f"line {line}: empty journal_id")
            if "\r" in jid:
                raise CsvFormatError(f"line {line}: journal_id {jid!r} holds a carriage return")
            labels = {f.strip() for f in field_list.split(";") if f.strip()}
            for what, text in [("name", name)] + [("field label", f) for f in sorted(labels)]:
                if "\r" in text:
                    raise CsvFormatError(f"line {line}: journal {jid!r} {what} {text!r} holds a "
                                         "carriage return")
            year = _reference_int(year_s, "year", line)
            articles = _reference_int(articles_s, "articles", line, minimum=0)
            if jid not in names:
                names[jid], fields[jid], years[jid] = name, set(), {}
            elif names[jid] != name:
                raise CsvFormatError(f"line {line}: journal {jid!r} renamed "
                                     f"({names[jid]!r} -> {name!r})")
            if year in years[jid]:
                raise CsvFormatError(f"line {line}: duplicate journal_id {jid!r} for year {year}")
            years[jid][year] = articles
            fields[jid] |= labels
    except csv.Error as exc:
        raise CsvFormatError(f"line {start}: {exc}") from None
    return journal_table((jid, name, fields[jid], years[jid]) for jid, name in names.items())


def reference_citations(source):
    """citations.csv parsed by one plain ``csv.reader`` loop over the rows:
    every cell stripped and checked on every row, an id that holds a
    carriage return refused, and the ledger built through ``citation_ledger``.  Text is read as a file opened with
    ``newline=""``: a line ends at LF, CRLF or CR."""
    reader = csv.reader(io.StringIO(source, newline="") if isinstance(source, str) else source)
    records = []
    start = 1  # the line where the next row starts: an error names its row's first line
    try:
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("line 1: missing header row")
        if [h.strip() for h in header] != list(CITATIONS_HEADER):
            raise CsvFormatError(f"line 1: expected header {','.join(CITATIONS_HEADER)}, "
                                 f"got {','.join(header)}")
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(CITATIONS_HEADER):
                raise CsvFormatError(f"line {line}: expected {len(CITATIONS_HEADER)} columns, "
                                     f"got {len(row)}")
            cells = [c.strip() for c in row]
            for name, jid in zip(CITATIONS_HEADER[:2], cells):
                if not jid:
                    raise CsvFormatError(f"line {line}: empty {name}")
                if "\r" in jid:
                    raise CsvFormatError(f"line {line}: {name} {jid!r} holds a carriage return")
            numbers = [_reference_int(cell, name, line, minimum=1 if name == "count" else None)
                       for name, cell in zip(CITATIONS_HEADER[2:], cells[2:])]
            records.append((*cells[:2], *numbers))
    except csv.Error as exc:
        raise CsvFormatError(f"line {start}: {exc}") from None
    return citation_ledger(records)


def _reference_float(text, name, line):
    """``text`` as ``float()`` reads it, an empty one as NaN: a finite
    number in ASCII, without a leading ``+`` or a ``_``."""
    if not text:
        return math.nan
    value = None
    if text.isascii() and not text.startswith("+") and "_" not in text:
        try:
            value = float(text)
        except ValueError:
            pass
    if value is None or not math.isfinite(value):
        raise CsvFormatError(f"line {line}: malformed {name} {text!r}")
    return value


def reference_scores(source):
    """scores.csv parsed by one plain ``csv.reader`` loop over the rows,
    every decimal cell read by ``float()`` and every count cell on every row,
    an id that holds a carriage return refused, lines split as a file opened with ``newline=""`` splits them."""
    reader = csv.reader(io.StringIO(source, newline="") if isinstance(source, str) else source)
    ids, decimals, counts = {}, [], []  # ids: insertion-ordered
    start = 1  # the line where the next row starts: an error names its row's first line
    try:
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("line 1: missing header row")
        if [h.strip() for h in header] != list(SCORES_HEADER):
            raise CsvFormatError(f"line 1: expected header {','.join(SCORES_HEADER)}, "
                                 f"got {','.join(header)}")
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(SCORES_HEADER):
                raise CsvFormatError(f"line {line}: expected {len(SCORES_HEADER)} columns, "
                                     f"got {len(row)}")
            jid, *cells = (c.strip() for c in row)
            if not jid:
                raise CsvFormatError(f"line {line}: empty journal_id")
            if "\r" in jid:
                raise CsvFormatError(f"line {line}: journal_id {jid!r} holds a carriage return")
            if jid in ids:
                raise CsvFormatError(f"line {line}: duplicate journal_id {jid!r}")
            ids[jid] = None
            decimals.append([_reference_float(cell, name, line)
                             for name, cell in zip(SCORES_HEADER[1:4], cells)])
            counts.append([_reference_int(cell, name, line, minimum=0)
                           for name, cell in zip(SCORES_HEADER[4:], cells[3:])])
    except csv.Error as exc:
        raise CsvFormatError(f"line {start}: {exc}") from None
    return MetricScores(None, tuple(ids), *_columns(decimals, 3), *_columns(counts, 3))


def reference_logistic_correlation(r, x0, n, burn_in):
    """The correlation of successive logistic-map iterates, the orbit filled
    one iterate at a time by a plain loop."""
    x = x0
    for _ in range(burn_in):
        x = r * x * (1.0 - x)
    xs = np.empty(n + 1)
    xs[0] = x
    for k in range(1, n + 1):
        x = r * x * (1.0 - x)
        xs[k] = x
    return pearson_r(xs[:-1], xs[1:])


def random_corpus(rng, n_journals=None, census_year=2006, window=5):
    """Small random corpus; every journal publishes, network non-empty."""
    n = int(n_journals) if n_journals is not None else int(rng.integers(2, 7))
    ids = [f"J{k:02d}" for k in range(n)]
    journals = []
    for jid in ids:
        years = {y: int(rng.integers(1, 40)) for y in range(census_year - window, census_year)}
        fields = {f for f in ("alpha", "beta") if rng.random() < 0.5}
        journals.append((jid, f"Journal {jid}", fields, years))
    records = []
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.6:
                records.append((ids[i], ids[j], census_year,
                                int(rng.integers(census_year - window, census_year)),
                                int(rng.integers(1, 20))))
    if not any(citing != cited for citing, cited, *_ in records):
        records.append((ids[0], ids[-1], census_year, census_year - 1, 3))
    # noise rows the window filter must ignore
    records.append((ids[0], ids[-1], census_year - 1, census_year - 2, 5))
    records.append((ids[0], ids[-1], census_year, census_year - window - 1, 4))
    return journal_table(journals), citation_ledger(records)


def exact_mwu_two_sided_p(a, b) -> float:
    """Exact permutation p: enumerate every placement of group a's ranks."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    pooled = np.concatenate([a, b])
    n1, n = len(a), len(pooled)
    ranks = rankdata(pooled, method="average")
    mu = n1 * (n - n1) / 2.0

    def u_of(positions) -> float:
        return float(ranks[list(positions)].sum() - n1 * (n1 + 1) / 2.0)

    u_obs = u_of(range(n1))
    hits = total = 0
    for positions in combinations(range(n), n1):
        total += 1
        if abs(u_of(positions) - mu) >= abs(u_obs - mu) - 1e-12:
            hits += 1
    return hits / total


def score_table(journal_ids, **columns) -> MetricScores:
    """Read-back style MetricScores (no census year) out of raw columns.

    Columns use canonical metric names; a missing float column is all NaN,
    a missing count column all 0.
    """
    n = len(journal_ids)
    filled = {name: np.full(n, np.nan) for name in ("ef", "ai", "impact_factor")}
    filled.update({name: np.zeros(n, np.int64) for name in ("total_citations", "n5", "n2")})
    return MetricScores(None, tuple(journal_ids), **{**filled, **columns})


def log_variance_share(cv1: float, cv2: float, cv3: float) -> float:
    """Correlation of (log z1 + log x3, log z2 + log x3) for independent
    lognormals calibrated to the given coefficients of variation."""
    s1, s2, s3 = (math.log1p(c * c) for c in (cv1, cv2, cv3))
    return s3 / math.sqrt((s1 + s3) * (s2 + s3))
