import csv
import io
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenrank import corpus
from eigenrank import (CitationLedger, CitationMatrix, CitationRecord, CsvFormatError,
                       JournalEntry, JournalTable, PairedObservations, ValidationError,
                       bigmac_csv, bigmac_fixture, build_citation_matrix,
                       parse_citation_edges, parse_journal_metadata, write_citation_edges,
                       write_journal_metadata)
from helpers import random_corpus

JOURNALS_HEADER = "journal_id,name,fields,year,articles\n"
CITATIONS_HEADER = "citing_id,cited_id,citing_year,cited_year,count\n"


# ---------------------------------------------------------------------------
# journals.csv parsing
# ---------------------------------------------------------------------------

def test_parse_journals_header_only_gives_empty_table():
    table = parse_journal_metadata(JOURNALS_HEADER)
    assert len(table) == 0


def test_parse_journals_merges_years_per_journal():
    text = (JOURNALS_HEADER
            + "A,Alpha,medicine,2005,10\n"
            + "A,Alpha,medicine;stats,2006,12\n")
    table = parse_journal_metadata(text)
    assert len(table) == 1
    entry = table.get("A")
    assert entry.articles_by_year == {2005: 10, 2006: 12}
    assert entry.fields == frozenset({"medicine", "stats"})


def test_parse_journals_negative_articles_is_format_error():
    text = JOURNALS_HEADER + "A,Alpha,,2005,10\nB,Beta,,2005,-3\n"
    with pytest.raises(CsvFormatError, match="line 3.*-3"):
        parse_journal_metadata(text)


def test_parse_journals_out_of_range_integer_is_format_error():
    text = JOURNALS_HEADER + "A,Alpha,,2005,10\nB,Beta,,2005,9223372036854775808\n"
    with pytest.raises(CsvFormatError,
                       match="^line 3: articles 9223372036854775808 out of range"):
        parse_journal_metadata(text)


def test_parse_journals_duplicate_journal_year_is_format_error():
    text = JOURNALS_HEADER + "A,Alpha,,2005,10\nA,Alpha,,2005,11\n"
    with pytest.raises(CsvFormatError, match="line 3.*'A'"):
        parse_journal_metadata(text)


def test_parse_journals_conflicting_name_is_format_error():
    text = JOURNALS_HEADER + "A,Alpha,,2005,10\nA,Alfa,,2006,11\n"
    with pytest.raises(CsvFormatError, match="renamed"):
        parse_journal_metadata(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_journal_metadata, JOURNALS_HEADER + "A,Alpha,,2005,10\n ,Beta,,2005,3\n",
     "^line 3: empty journal_id$"),
    (parse_citation_edges, CITATIONS_HEADER + "A,B,2006,2005,1\nA, ,2006,2005,1\n",
     "^line 3: empty journal id$")])
def test_empty_journal_id_is_format_error_with_its_line(parse, text, message):
    with pytest.raises(CsvFormatError, match=message):
        parse(text)


def test_parse_journals_missing_column_is_format_error():
    with pytest.raises(CsvFormatError, match="columns"):
        parse_journal_metadata(JOURNALS_HEADER + "A,Alpha,2005,10\n")


def test_parse_journals_rejects_wrong_header():
    with pytest.raises(CsvFormatError, match="header"):
        parse_journal_metadata("journal,name\nA,Alpha\n")


def test_parse_journals_rejects_missing_header():
    with pytest.raises(CsvFormatError, match="header"):
        parse_journal_metadata("")


# ---------------------------------------------------------------------------
# citations.csv parsing
# ---------------------------------------------------------------------------

def test_parse_citations_direct():
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2004,7\n")
    assert len(ledger) == 1
    record = tuple(ledger)[0]
    assert record == CitationRecord("A", "B", 2006, 2004, 7)


def test_parse_citations_empty_body():
    assert len(parse_citation_edges(CITATIONS_HEADER)) == 0


def test_parse_citations_zero_count_is_format_error():
    with pytest.raises(CsvFormatError, match="count"):
        parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2004,0\n")


def test_parse_citations_missing_column_is_format_error():
    with pytest.raises(CsvFormatError, match="columns"):
        parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2004\n")


def test_ledger_preserves_input_order():
    text = CITATIONS_HEADER + "B,A,2006,2005,1\nA,B,2006,2005,2\n"
    ledger = parse_citation_edges(text)
    assert [r.citing_id for r in ledger] == ["B", "A"]


def test_parse_citations_malformed_year_reports_its_line():
    text = CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,20x6,2005,1\n"
    with pytest.raises(CsvFormatError, match="^line 3: malformed citing_year '20x6'$"):
        parse_citation_edges(text)


def test_parse_citations_zero_count_after_blank_line_reports_physical_line():
    text = CITATIONS_HEADER + "A,B,2006,2005,1\n\nA,B,2006,2005,0\n"
    with pytest.raises(CsvFormatError, match="^line 4: count must be >= 1, got 0$"):
        parse_citation_edges(text)


def test_parse_citations_out_of_range_integer_is_format_error():
    text = CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,2006,99999999999999999999999,1\n"
    with pytest.raises(CsvFormatError,
                       match="^line 3: cited_year 99999999999999999999999 out of range"):
        parse_citation_edges(text)
    with pytest.raises(CsvFormatError, match="^line 2: count 9223372036854775808 out of range"):
        parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2005,9223372036854775808\n")
    edge = parse_citation_edges(CITATIONS_HEADER + "A,B,-9223372036854775808,2005,"
                                "9223372036854775807\n")
    assert (edge.citing_year[0], edge.count[0]) == (-2**63, 2**63 - 1)


def test_record_built_ledger_out_of_range_integer_is_validation_error():
    with pytest.raises(ValidationError,
                       match=r"^record 1: count 9223372036854775808 out of range \(not a 64-bit"):
        CitationLedger([CitationRecord("A", "B", 2006, 2004, 1),
                        CitationRecord("A", "B", 2006, 2004, 2**63)])
    with pytest.raises(ValidationError, match="^record 0: citing_year 9223372036854775808 out"):
        CitationLedger([CitationRecord("A", "B", 2**63, 2004, 1)])
    with pytest.raises(ValidationError, match="^record 0: cited_year -9223372036854775809 out"):
        CitationLedger([CitationRecord("A", "B", 2006, -2**63 - 1, 1)])


def test_parse_citations_quoted_id_with_comma():
    ledger = parse_citation_edges(CITATIONS_HEADER + '"A,1",B,2006,2005,3\n')
    assert list(ledger) == [CitationRecord("A,1", "B", 2006, 2005, 3)]
    assert ledger.ids == ("A,1", "B")


def test_parse_citations_from_open_file_equals_text(tmp_path):
    text = CITATIONS_HEADER + "B,A,2006,2005,1\n A ,B,2006,2004,2\nC,C,2005,2007,4\n"
    path = tmp_path / "citations.csv"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8", newline="") as fh:
        from_file = parse_citation_edges(fh)
    assert from_file == parse_citation_edges(text)
    assert [r.citing_id for r in from_file] == ["B", "A", "C"]


def test_record_built_ledger_round_trips_and_matches_parsed_columns():
    records = (CitationRecord("B", "C", 2006, 2005, 2),
               CitationRecord("A", "B", 2005, 2007, 1),
               CitationRecord("C", "C", 2006, 2004, 9))
    ledger = CitationLedger(records)
    assert tuple(ledger) == records
    assert ledger.ids == ("B", "C", "A")
    assert ledger.citing.tolist() == [0, 2, 1]
    assert ledger.cited.tolist() == [1, 0, 1]
    parsed = parse_citation_edges(write_citation_edges(ledger))
    assert parsed == ledger
    assert parsed != CitationLedger(records[:2])


def test_ledger_columns_are_read_only():
    for ledger in (CitationLedger((CitationRecord("A", "B", 2006, 2005, 2),)),
                   parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2005,2\n")):
        for column in (ledger.citing, ledger.cited, ledger.citing_year, ledger.cited_year,
                       ledger.count):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 5
        with pytest.raises(AttributeError):
            ledger.count = ledger.count.copy()
        assert ledger.count.tolist() == [2]


def test_validate_rejects_unknown_ids_and_flags_noisy_records():
    table = parse_journal_metadata(JOURNALS_HEADER + "A,Alpha,,2005,10\nB,Beta,,2005,3\n")
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,X,2006,2005,1\nY,B,2006,2005,2\n")
    with pytest.raises(ValidationError, match="X, Y"):
        ledger.validate(table)
    noisy = parse_citation_edges(
        CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,2004,2007,2\n").validate(table)
    assert [r.cited_year for r in noisy] == [2007]


# ---------------------------------------------------------------------------
# citation matrix
# ---------------------------------------------------------------------------

def _two_journal_table():
    return parse_journal_metadata(
        JOURNALS_HEADER + "A,Alpha,,2005,10\nB,Beta,,2005,3\n")


def test_build_matrix_single_record():
    table = _two_journal_table()
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2004,7\n")
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=False)
    assert z.to_dict() == {("B", "A"): 7.0}
    assert z.ids == ("A", "B")
    assert (z.row.tolist(), z.col.tolist(), z.value.tolist()) == ([1], [0], [7.0])
    for window in (0, -1):
        with pytest.raises(ValueError, match="^window must be positive$"):
            build_citation_matrix(ledger, table, 2006, window, exclude_self=False)


def test_citation_matrix_checks_its_triplets():
    ids = ("A", "B", "C")

    def matrix(row, col, value, exclude_self=False):
        return CitationMatrix(ids, row, col, value, exclude_self)

    z = matrix([1, 2, 0], [0, 0, 2], [2.0, 3.0, 5.0])
    assert not (z.row.flags.writeable or z.col.flags.writeable or z.value.flags.writeable)
    dense = np.zeros((3, 3))
    dense[z.row, z.col] = z.value
    x = np.array([0.5, 0.25, 0.125])
    assert np.allclose(z @ x, dense @ x)
    for wrong in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="does not match 3 journals"):
            z @ wrong
    for args, message in ((([0, 3], [0, 1], [1.0, 1.0]), "outside the 3 journals"),
                          (([1], [-1], [1.0]), "outside the 3 journals"),
                          (([1, 2], [0], [1.0, 1.0]), "lengths"),
                          (([2, 1], [0, 0], [1.0, 1.0]), "sorted"),
                          (([1, 1], [0, 0], [1.0, 1.0]), "unique"),
                          (([1], [0], [0.0]), "strictly positive")):
        with pytest.raises(ValidationError, match=message):
            matrix(*args)
    with pytest.raises(ValidationError, match="self-citations"):
        matrix([1], [1], [1.0], exclude_self=True)


def test_build_matrix_excludes_census_year_citations():
    table = _two_journal_table()
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2006,7\n")
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=False)
    assert z.to_dict() == {}


def test_build_matrix_exclude_self_drops_diagonal():
    table = _two_journal_table()
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,A,2006,2005,4\nA,B,2006,2005,1\n")
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
    assert z.to_dict() == {("B", "A"): 1.0}
    assert z.self_cites_excluded


def test_build_matrix_unknown_journal_lists_offenders():
    table = _two_journal_table()
    ledger = CitationLedger((CitationRecord("A", "Z", 2006, 2005, 1),))
    with pytest.raises(ValidationError, match="Z"):
        build_citation_matrix(ledger, table, 2006, 5, exclude_self=False)


def test_build_matrix_out_of_window_records_silently_ignored():
    table = _two_journal_table()
    ledger = parse_citation_edges(
        CITATIONS_HEADER + "A,B,2006,2000,9\nA,B,2005,2004,9\nA,B,2006,2003,2\n")
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=False)
    assert z.to_dict() == {("B", "A"): 2.0}


def test_build_matrix_is_additive_under_record_splitting():
    rng = np.random.default_rng(42)
    for _ in range(20):
        table, ledger = random_corpus(rng)
        whole = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
        split_records = []
        for r in ledger:
            if r.count > 1:
                first = r.count // 2
                split_records.append(CitationRecord(r.citing_id, r.cited_id,
                                                    r.citing_year, r.cited_year, first))
                split_records.append(CitationRecord(r.citing_id, r.cited_id,
                                                    r.citing_year, r.cited_year,
                                                    r.count - first))
            else:
                split_records.append(r)
        split = build_citation_matrix(CitationLedger(tuple(split_records)),
                                      table, 2006, 5, exclude_self=True)
        assert whole.to_dict() == split.to_dict()


def test_csv_round_trip_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        table, ledger = random_corpus(rng)
        assert parse_journal_metadata(write_journal_metadata(table)) == table
        assert parse_citation_edges(write_citation_edges(ledger)) == ledger


def test_table_invariants_rejected():
    entry = JournalEntry("A", "Alpha", frozenset(), {2005: 1})
    with pytest.raises(ValidationError, match="duplicate"):
        JournalTable((entry, entry))
    with pytest.raises(ValidationError, match="negative"):
        JournalTable((JournalEntry("A", "Alpha", frozenset(), {2005: -1}),))
    with pytest.raises(ValidationError, match="positive"):
        CitationLedger((CitationRecord("A", "B", 2006, 2005, 0),))
    # values that would not read back from the CSV files as themselves
    for entry, message in ((JournalEntry(" A", "Alpha", frozenset(), {}), "journal_id ' A'"),
                           (JournalEntry("A", "Alpha\n", frozenset(), {}), "name 'Alpha\\n'"),
                           (JournalEntry("A", "Al\rpha", frozenset(), {}), "name 'Al\\rpha'"),
                           (JournalEntry("A", "Alpha", frozenset({"bio "}), {}), "label 'bio '"),
                           (JournalEntry("A", "Alpha", frozenset({"bio;med"}), {}), "holds ';'")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            JournalTable((entry,))
    for jid in (" A", "A\t", "A\rB", "\u3000"):
        with pytest.raises(ValidationError, match="cannot be written to CSV"):
            CitationLedger((CitationRecord("B", jid, 2006, 2005, 1),))


@pytest.mark.parametrize("window, counted", [(5, (2001, 2002, 2003, 2004, 2005)),
                                              (2, (2004, 2005))])
def test_article_counts_window_bounds(window, counted):
    # one journal per year 2000..2006; only the window years before 2006 count
    years = range(2000, 2007)
    table = JournalTable(tuple(JournalEntry(f"Y{y}", str(y), frozenset(), {y: 7})
                               for y in years))
    assert table.article_counts(2006, window).tolist() == [7 * (y in counted) for y in years]


# ---------------------------------------------------------------------------
# paired observations and the embedded fixture
# ---------------------------------------------------------------------------

def test_paired_observations_validation():
    with pytest.raises(ValidationError, match="lengths"):
        PairedObservations(("a", "b"), [1.0], [2.0, 3.0])
    with pytest.raises(ValidationError, match="unique"):
        PairedObservations(("a", "a"), [1.0, 2.0], [3.0, 4.0])


def test_bigmac_fixture_contents():
    obs = bigmac_fixture()
    assert len(obs) == 22
    assert obs.labels[0] == "Denmark"
    assert obs.labels[-1] == "China"
    assert (obs.x[0], obs.y[0]) == (24.75, 211.13)
    assert (obs.x[-1], obs.y[-1]) == (9.90, 5.56)
    assert obs.x_name == "burger_price"


# printed two-decimal real-wage column of the embedded table
REAL_WAGE_COLUMN = [8.53, 6.62, 6.09, 6.01, 5.64, 5.60, 5.49, 5.04, 4.74, 4.62, 4.14,
                    3.62, 3.18, 3.01, 2.00, 1.77, 1.52, 1.27, 1.04, 0.80, 0.58, 0.56]


def test_bigmac_real_wage_column_reproduced():
    obs = bigmac_fixture()
    real_wage = obs.y / obs.x
    assert np.max(np.abs(real_wage - np.array(REAL_WAGE_COLUMN))) <= 0.005


def test_bigmac_csv_export():
    text = bigmac_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "country,burger_price,hourly_wage"
    assert len(lines) == 23
    assert lines[1] == "Denmark,24.75,211.13"


# ---------------------------------------------------------------------------
# the vectorised citations.csv reader against the csv row loop
# ---------------------------------------------------------------------------

def _outcome(parse, source):
    """The ledger ``parse`` returns, or the type and message of what it raises."""
    try:
        return parse(source)
    except Exception as exc:  # the same failure is part of the contract
        return type(exc), str(exc)


def _stream(data):
    """``data`` (text or bytes) as a file opened the way the CLI opens an input."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")


_ROWS = st.lists(st.tuples(*[st.text(alphabet="ABJXZ0189-.", min_size=1, max_size=12)] * 2,
                           *[st.integers(1, 3000).map(str)] * 3).map(list), max_size=10)
_ODD_IDS = ('"A,1"', '"Q"', "A,1", " A", "A ", "", "é", "Jé", "A\tB", "\ufeffA", "J\x00", "A B",
            "J\x1f", "Z" * 33)
_ODD_NUMBERS = ("0", "0007", "+5", "-3", "1_000", "9" * 18, "9" * 19, "12345678901234567890",
                " 2003", "2003 ", "", "\u0663", "7\t")


@st.composite
def _citation_texts(draw):
    """citations.csv texts of plain rows with up to two defects: each a
    condition the vectorised reader must decline, or a close call it may not."""
    rows = draw(_ROWS)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.integers(0, len(rows) - 1))
        defect = draw(st.sampled_from(("id", "number", "4 cells", "6 cells", "blank line")))
        if defect == "id":
            rows[row][draw(st.integers(0, 1))] = draw(st.sampled_from(_ODD_IDS))
        elif defect == "number":
            rows[row][draw(st.integers(2, 4))] = draw(st.sampled_from(_ODD_NUMBERS))
        else:
            rows[row] = {"4 cells": rows[row][:4], "6 cells": rows[row] + ["1"],
                         "blank line": []}[defect]
    end = draw(st.sampled_from(("\n", "\n", "\n", "\r\n")))
    text = CITATIONS_HEADER.replace("\n", end) + "".join(",".join(r) + end for r in rows)
    return draw(st.sampled_from((text, text, text, "\ufeff" + text, text.rstrip("\r\n"))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=_citation_texts(), chunk=st.sampled_from((1, 7, 30, corpus._CHUNK_CHARS)))
@example(text=CITATIONS_HEADER + "MocCRNN1fv%UylLw,|{}X9w6QsY)I3>(J,2006,2005,1\n",
         chunk=corpus._CHUNK_CHARS)  # two 16-byte ids whose mixed uint64 keys are equal
def test_vectorised_reader_equals_row_loop(text, chunk):
    expected = _outcome(corpus._parse_citation_rows, text)
    from_file = _outcome(corpus._parse_citation_rows, _stream(text))
    with patch.object(corpus, "_CHUNK_CHARS", chunk):
        assert _outcome(parse_citation_edges, text) == expected
        assert _outcome(parse_citation_edges, _stream(text)) == from_file


def test_each_defect_alone_gives_the_row_loop_outcome():
    plain = (["J1", "0028-0836", "2006", "2005", "3"], ["ABCDEFGHIJ", "J1", "2005", "2001", "12"])
    for column, values in enumerate((_ODD_IDS, _ODD_IDS) + (_ODD_NUMBERS,) * 3):
        for value in values:
            rows = [list(r) for r in plain]
            rows[1][column] = value
            text = CITATIONS_HEADER + "".join(",".join(r) + "\n" for r in rows)
            assert (_outcome(parse_citation_edges, text)
                    == _outcome(corpus._parse_citation_rows, text)), text
    # a cell over a lowered csv field size limit (the longest header cell has 11)
    limit = csv.field_size_limit(11)
    try:
        assert (_outcome(parse_citation_edges, CITATIONS_HEADER + "J1,ABCDEFGHIJKL,2006,2005,3\n")
                == (CsvFormatError, "line 2: field larger than field limit (11)"))
    finally:
        csv.field_size_limit(limit)


def test_bytes_not_utf8_after_a_fault_report_the_fault():
    # the row loop meets the zero count before it decodes the bad byte
    data = (CITATIONS_HEADER + "A,B,2006,2005,0\n" + "A,B,2006,2005,1\n" * 2000).encode() + b"\xe9"
    assert (_outcome(parse_citation_edges, _stream(data))
            == (CsvFormatError, "line 2: count must be >= 1, got 0"))


def test_plain_citations_skip_the_row_loop(monkeypatch):
    def row_loop(source):
        raise AssertionError("the csv row loop parsed a plain file")
    monkeypatch.setattr(corpus, "_parse_citation_rows", row_loop)
    ids = ("0028-0836", "J1", "ABCDEFGHIJKL", "1476-4687", "Z" * 32, "A")
    small = CitationLedger(CitationRecord(ids[i % 6], ids[(i * 7 + 1) % 6], 2000 + i % 9,
                                          1990 + i % 17, 1 + i % 250) for i in range(300))
    assert parse_citation_edges(write_citation_edges(small)) == small
    # more rows than the first column allocation holds, over many chunks
    rng = np.random.default_rng(3)
    columns = (rng.integers(0, 2000, 70_000), rng.integers(0, 2000, 70_000),
               rng.integers(1990, 2010, 70_000), rng.integers(1990, 2010, 70_000),
               rng.integers(1, 10**6, 70_000))
    big = CitationLedger(CitationRecord(f"J{a:05d}", f"J{b:05d}", *rest)
                         for a, b, *rest in zip(*(c.tolist() for c in columns)))
    text = write_citation_edges(big)
    assert len(text) > 4 * corpus._CHUNK_CHARS
    assert parse_citation_edges(text) == big
    assert parse_citation_edges(_stream(text)) == big


_CELLS = st.text(st.characters(exclude_categories=("Cs",)), max_size=6).filter(
    lambda s: s == s.strip() and "\r" not in s)
_INT64 = st.integers(-2**63, 2**63 - 1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ids=st.lists(_CELLS.filter(bool), min_size=1, max_size=5, unique=True), data=st.data())
def test_written_files_read_back_as_the_same_objects(ids, data):
    table = JournalTable(tuple(JournalEntry(
        jid, data.draw(_CELLS), frozenset(data.draw(st.lists(_CELLS.filter(
            lambda s: s and ";" not in s), max_size=3))),
        data.draw(st.dictionaries(_INT64, st.integers(0, 2**63 - 1), min_size=1, max_size=3)))
        for jid in ids))
    journal = st.sampled_from(ids)
    ledger = CitationLedger(data.draw(st.lists(st.builds(
        CitationRecord, journal, journal, _INT64, _INT64, st.integers(1, 2**63 - 1)), max_size=6)))
    for obj, write, parse in ((table, write_journal_metadata, parse_journal_metadata),
                              (ledger, write_citation_edges, parse_citation_edges)):
        text = write(obj)
        rows = list(csv.reader(io.StringIO(text)))
        variants = [text]
        for terminator, quoting in (("\r\n", csv.QUOTE_MINIMAL), ("\n", csv.QUOTE_ALL)):
            out = io.StringIO()  # CRLF line ends; every cell quoted, commas and all
            csv.writer(out, lineterminator=terminator, quoting=quoting).writerows(rows)
            variants.append(out.getvalue())
        assert parse(text) == obj
        for variant in variants:  # read as the CLI reads a file, after a byte-order mark
            assert parse(_stream("\ufeff" + variant)) == obj
