import csv
import io
import re
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenrank import _util, corpus
from eigenrank import (CitationLedger, CitationMatrix, CsvFormatError, JournalTable,
                       PairedObservations, ValidationError, bigmac_csv, bigmac_fixture,
                       build_citation_matrix, impact_factor, parse_citation_edges,
                       parse_journal_metadata, total_citations, write_citation_edges,
                       write_journal_metadata)
from eigenrank.cli import _parse_file
from eigenrank.corpus import CitationRecord
from helpers import citation_ledger, journal_table, random_corpus, reference_journals

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
            + "A,Alpha,medicine;stats,2006,12\n"
            + "B,Beta,,2006,0\n"
            + "B,Beta,,2003,4\n")
    table = parse_journal_metadata(text)
    assert len(table) == 2
    assert (table.ids, table.names) == (("A", "B"), ("Alpha", "Beta"))
    # the row columns are sorted by journal, then year; B's year of 0
    # articles is a row, not an absent year
    assert table.journal.tolist() == [0, 0, 1, 1]
    assert table.year.tolist() == [2005, 2006, 2003, 2006]
    assert table.articles.tolist() == [10, 12, 4, 0]
    assert table.article_counts(2007, 5).tolist() == [22, 4]
    # A's fields are unioned across its rows
    assert table.labels == ("medicine", "stats")
    assert table.members_of("medicine") == table.members_of("stats") == ("A",)
    assert table.members_of("") == ()


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
     "^line 3: empty cited_id$")])
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
    assert ledger.ids == ("A", "B")
    assert [getattr(ledger, name).tolist() for name in
            ("citing", "cited", "citing_year", "cited_year", "count")] == [[0], [1], [2006],
                                                                           [2004], [7]]


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
    assert ledger.ids == ("B", "A")
    assert (ledger.citing.tolist(), ledger.cited.tolist()) == ([0, 1], [1, 0])
    assert ledger.count.tolist() == [1, 2]


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
        citation_ledger([("A", "B", 2006, 2004, 1), ("A", "B", 2006, 2004, 2**63)])
    with pytest.raises(ValidationError, match="^record 0: citing_year 9223372036854775808 out"):
        citation_ledger([("A", "B", 2**63, 2004, 1)])
    with pytest.raises(ValidationError, match="^record 0: cited_year -9223372036854775809 out"):
        citation_ledger([("A", "B", 2006, -2**63 - 1, 1)])
    # one value below int64 and one above it: numpy would hold the column as float64
    with pytest.raises(ValidationError, match="^record 1: citing_year 9223372036854775808 out"):
        citation_ledger([("A", "B", -1, 2004, 1), ("A", "B", 2**63, 2004, 1)])
    with pytest.raises(ValidationError, match="^record 0: count 18446744073709551615 out"):
        CitationLedger(("A", "B"), [0], [1], [2006], [2004], np.array([2**64 - 1], np.uint64))


def test_parse_citations_quoted_id_with_comma():
    ledger = parse_citation_edges(CITATIONS_HEADER + '"A,1",B,2006,2005,3\n')
    assert ledger == citation_ledger([("A,1", "B", 2006, 2005, 3)])
    assert ledger.ids == ("A,1", "B")


def test_parse_citations_from_open_file_equals_text(tmp_path):
    text = CITATIONS_HEADER + "B,A,2006,2005,1\n A ,B,2006,2004,2\nC,C,2005,2007,4\n"
    path = tmp_path / "citations.csv"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8", newline="") as fh:
        from_file = parse_citation_edges(fh)
    assert from_file == parse_citation_edges(text)
    assert from_file.ids == ("B", "A", "C")
    assert from_file.citing.tolist() == [0, 1, 2]


def test_record_built_ledger_round_trips_and_matches_parsed_columns():
    records = (("B", "C", 2006, 2005, 2), ("A", "B", 2005, 2007, 1), ("C", "C", 2006, 2004, 9))
    ledger = citation_ledger(records)
    assert ledger.ids == ("B", "C", "A")
    assert ledger.citing.tolist() == [0, 2, 1]
    assert ledger.cited.tolist() == [1, 0, 1]
    assert ledger.citing_year.tolist() == [2006, 2005, 2006]
    assert ledger.cited_year.tolist() == [2005, 2007, 2004]
    assert ledger.count.tolist() == [2, 1, 9]
    parsed = parse_citation_edges(write_citation_edges(ledger))
    assert parsed == ledger
    assert parsed != citation_ledger(records[:2])
    # the same records under the ids in another order are another ledger
    assert parsed != CitationLedger(("C", "B", "A"), [1, 2, 0], [0, 1, 0], *(
        getattr(ledger, name) for name in ("citing_year", "cited_year", "count")))


def test_ledger_columns_are_read_only():
    # int64 arrays are stored as they are, made read-only in place: the parsers
    # hand a paper-scale ledger over without a copy
    columns = [np.array([value]) for value in (0, 1, 2006, 2005, 2)]
    handed_over = CitationLedger(("A", "B"), *columns)
    assert all(stored is given for stored, given in zip(
        (handed_over.citing, handed_over.cited, handed_over.citing_year,
         handed_over.cited_year, handed_over.count), columns))
    for ledger in (handed_over, citation_ledger([("A", "B", 2006, 2005, 2)]),
                   parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2005,2\n")):
        for column in (ledger.citing, ledger.cited, ledger.citing_year, ledger.cited_year,
                       ledger.count):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 5
        with pytest.raises(AttributeError):
            ledger.count = ledger.count.copy()
        assert ledger.count.tolist() == [2]


def test_validate_rejects_unknown_ids_and_flags_noisy_records():
    # validate, iteration and CitationRecord are kept only for the benchmark's
    # tracer (perfbench/tracing.py), which wraps validate and __iter__
    table = parse_journal_metadata(JOURNALS_HEADER + "A,Alpha,,2005,10\nB,Beta,,2005,3\n")
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,X,2006,2005,1\nY,B,2006,2005,2\n")
    with pytest.raises(ValidationError, match="X, Y"):
        ledger.validate(table)
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,2004,2007,2\n")
    assert list(ledger) == [CitationRecord("A", "B", 2006, 2005, 1),
                            CitationRecord("A", "B", 2004, 2007, 2)]
    assert ledger.validate(table) == (CitationRecord("A", "B", 2004, 2007, 2),)


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
    assert (z.row.tolist(), z.col.tolist(), z.value.tolist()) == ([], [], [])


def test_build_matrix_exclude_self_drops_diagonal():
    table = _two_journal_table()
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,A,2006,2005,4\nA,B,2006,2005,1\n")
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
    assert (z.row.tolist(), z.col.tolist(), z.value.tolist()) == ([1], [0], [1.0])
    assert z.self_cites_excluded


def test_build_matrix_unknown_journal_lists_offenders():
    table = _two_journal_table()
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,Z,2006,2005,1\n")
    with pytest.raises(ValidationError, match="Z"):
        build_citation_matrix(ledger, table, 2006, 5, exclude_self=False)


def test_ledger_id_no_record_uses_is_not_an_unknown_journal():
    table = _two_journal_table()
    columns = ([0, 1], [1, 0], [2006, 2006], [2005, 2004], [1, 2])
    with_z = CitationLedger(("A", "B", "Z"), *columns)
    without_z = CitationLedger(("A", "B"), *columns)
    z, want = (build_citation_matrix(ledger, table, 2006, 5, exclude_self=False)
               for ledger in (with_z, without_z))
    assert (z.row.tolist(), z.col.tolist(), z.value.tolist()) == (
        want.row.tolist(), want.col.tolist(), want.value.tolist())
    for metric in (impact_factor, total_citations):
        np.testing.assert_array_equal(metric(with_z, table, 2006),
                                      metric(without_z, table, 2006))


def test_build_matrix_out_of_window_records_silently_ignored():
    table = _two_journal_table()
    ledger = parse_citation_edges(
        CITATIONS_HEADER + "A,B,2006,2000,9\nA,B,2005,2004,9\nA,B,2006,2003,2\n")
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=False)
    assert (z.row.tolist(), z.col.tolist(), z.value.tolist()) == ([1], [0], [2.0])


def test_build_matrix_is_additive_under_record_splitting():
    rng = np.random.default_rng(42)
    for _ in range(20):
        table, ledger = random_corpus(rng)
        whole = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
        # each record of count > 1 becomes two records whose counts add up to it
        half = ledger.count // 2
        split = half > 0
        columns = [np.concatenate((getattr(ledger, name), getattr(ledger, name)[split]))
                   for name in ("citing", "cited", "citing_year", "cited_year")]
        split_ledger = CitationLedger(ledger.ids, *columns,
                                      np.concatenate((ledger.count - half, half[split])))
        assert len(split_ledger) > len(ledger)
        z = build_citation_matrix(split_ledger, table, 2006, 5, exclude_self=True)
        for name in ("row", "col", "value"):
            np.testing.assert_array_equal(getattr(z, name), getattr(whole, name))


def test_csv_round_trip_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        table, ledger = random_corpus(rng)
        assert parse_journal_metadata(write_journal_metadata(table)) == table
        assert parse_citation_edges(write_citation_edges(ledger)) == ledger


def test_journal_without_year_rows_is_not_written():
    table = journal_table([("A", "Alpha", {"bio"}, {2005: 1}), ("B", "Beta", {"bio"}, {})])
    assert table.article_counts(2006, 5).tolist() == [1, 0]
    with pytest.raises(ValidationError, match="^journal 'B' has no year rows"):
        write_journal_metadata(table)


def _table(ids=("A",), names=("Alpha",), fields=((),), journal=(0,), year=(2005,),
           articles=(1,)):
    return JournalTable(ids, names, fields, journal, year, articles)


def _ledger(ids=("A", "B"), citing=(0,), cited=(1,), citing_year=(2006,), cited_year=(2005,),
            count=(1,)):
    return CitationLedger(ids, citing, cited, citing_year, cited_year, count)


def test_table_invariants_rejected():
    assert _table() == journal_table([("A", "Alpha", (), {2005: 1})])
    assert len(_ledger()) == 1
    for build, columns, message in (
            (_table, dict(ids=("A", "A"), names=("a", "b"), fields=((), ())), "duplicate"),
            (_table, dict(articles=(-1,)), "^journal 'A' has a negative article count$"),
            (_table, dict(year=(2**63,)), f"^row 0: year {2**63} out of range"),
            (_table, dict(articles=(2**63,)), f"^row 0: articles {2**63} out of range"),
            (_ledger, dict(count=(0,)), "positive"),
            # fractional and boolean values, not truncated without a word
            (_ledger, dict(citing_year=(2006.5,)), "^citing_year must hold integers, got 2006.5$"),
            (_ledger, dict(cited_year=np.array([2005.0])), "^cited_year must hold integers"),
            (_ledger, dict(count=(True,)), "^count must hold integers, got True$"),
            (_ledger, dict(count=np.array([True])), "^count must hold integers"),
            (_ledger, dict(cited=(1, True), citing=(0, 0), citing_year=(2006, 2006),
                           cited_year=(2005, 2005), count=(1, 1)), "^cited must hold integers"),
            (_table, dict(articles=(3.7,)), "^articles must hold integers, got 3.7$"),
            (_table, dict(articles=(True,)), "^articles must hold integers, got True$"),
            (_table, dict(year=np.array([2005.0])), "^year must hold integers"),
            (_table, dict(journal=("0",)), "^journal must hold integers, got '0'$"),
            (_table, dict(journal=np.zeros((1, 1), dtype=np.int64)), "^journal must hold integers"),
            # codes outside ids, repeated ids, unequal lengths, repeated rows
            (_ledger, dict(cited=(5,)), "^record 0: cited code 5 is not a position in the 2 "),
            (_ledger, dict(citing=(-1,)), "^record 0: citing code -1 is not a position"),
            (_ledger, dict(ids=("A", "A")), "^duplicate journal id 'A'$"),
            (_ledger, dict(count=(1, 1)), "must have equal lengths"),
            (_table, dict(journal=(1,)), "^row 0: journal code 1 is not a position in the 1 "),
            (_table, dict(ids=("A", "B", "A"), names=("a",) * 3, fields=((),) * 3),
             "^duplicate journal id 'A'$"),
            (_table, dict(names=()), "^ids, names and fields must have equal lengths$"),
            (_table, dict(year=(2005, 2006)), "^journal, year and articles must have equal"),
            (_table, dict(journal=(0, 0), year=(2005, 2005), articles=(1, 2)),
             "^duplicate journal_id 'A' for year 2005$"),
            (_table, dict(fields=("bio",)), "fields must be a set of labels, not the string"),
            (_table, dict(fields=({"bio", ""},)), "^journal 'A' has an empty field label$"),
            (_table, dict(ids=("",)), "^journal_id must be non-empty$"),
            (_ledger, dict(ids=("A", "")), "^journal_id must be non-empty$")):
        with pytest.raises(ValidationError, match=message):
            build(**columns)
    # values that would not read back from the CSV files as themselves
    for columns, message in ((dict(ids=(" A",)), "journal_id ' A'"),
                             (dict(names=("Alpha\n",)), "name 'Alpha\\n'"),
                             (dict(names=("Al\rpha",)), "name 'Al\\rpha'"),
                             (dict(fields=({"bio "},)), "label 'bio '"),
                             (dict(fields=({"bio;med"},)), "holds ';'")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            _table(**columns)
    for jid in (" A", "A\t", "A\rB", "\u3000"):
        with pytest.raises(ValidationError, match="cannot be written to CSV"):
            _ledger(ids=("B", jid))
    # numpy unsigned cells within int64 are stored as int64
    ledger = _ledger(count=[np.uint64(2**63 - 1)], cited_year=[np.uint64(2005)])
    assert ledger.count.dtype == ledger.cited_year.dtype == np.int64
    assert (ledger.count.tolist(), ledger.cited_year.tolist()) == ([2**63 - 1], [2005])


@pytest.mark.parametrize("window, counted", [(5, (2001, 2002, 2003, 2004, 2005)),
                                              (2, (2004, 2005))])
def test_article_counts_window_bounds(window, counted):
    # one journal per year 2000..2006; only the window years before 2006 count
    years = range(2000, 2007)
    table = journal_table((f"Y{y}", str(y), (), {y: 7}) for y in years)
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


def _row_loop(source):
    """``source`` parsed by the csv row loop alone."""
    return corpus._parse_citation_rows(
        _util.csv_reader(_util.read_text(source), corpus.CITATIONS_HEADER, "citations.csv"))


def _stream(data):
    """``data`` (text or bytes) as a file opened the way the CLI opens an input."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")


# number cells are mostly plain, sometimes signs, separators or a non-ASCII digit
_NUMBER_CELLS = st.one_of(st.integers(1, 3000).map(str),
                          st.text(alphabet="0123456789-+_\u0663", min_size=1, max_size=5))
_ROWS = st.lists(st.tuples(*[st.text(alphabet="ABJXZ0189-.", min_size=1, max_size=12)] * 2,
                           *[_NUMBER_CELLS] * 3).map(list), max_size=10)
_ODD_IDS = ('"A,1"', '"Q"', "A,1", " A", "A ", "", "é", "Jé", "A\tB", "\ufeffA", "J\x00", "A B",
            "J\x1f", "Z" * 33)
_ODD_NUMBERS = ("0", "0007", "+5", "-3", "1_000", "9" * 18, "9" * 19, "12345678901234567890",
                " 2003", "2003 ", "", "\u0663", "7\t")

_ODD_JOURNAL_CELLS = (
    _ODD_IDS,
    ('"Smith, Jones"', '"Q"', "", " Alpha", "Alpha ", "\u00c9mile", "A\tB", "x" * 40,
     '"Al\r\npha"'),
    ('"bio, med"', "", "bio;", " bio ; med ", "bio ;med", ";", "b\u00edo", "bio\x0b",
     '"bio\rmed"'),
    _ODD_NUMBERS,
    _ODD_NUMBERS)


@st.composite
def _citation_texts(draw):
    """citations.csv texts of plain rows with up to two defects: each a
    condition the vectorised reader must decline, or a close call it may not."""
    rows = draw(_ROWS)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.integers(0, len(rows) - 1))
        defect = draw(st.sampled_from(("id", "number", "4 cells", "6 cells", "blank line")))
        if len(rows[row]) < 5:  # a blank line or a short row already
            continue
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
@given(text=_citation_texts(), chunk=st.sampled_from((1, 7, 30, _util._CHUNK_CHARS)))
@example(text=CITATIONS_HEADER + "MocCRNN1fv%UylLw,|{}X9w6QsY)I3>(J,2006,2005,1\n",
         chunk=_util._CHUNK_CHARS)  # two 16-byte ids whose mixed uint64 keys are equal
def test_vectorised_reader_equals_row_loop(text, chunk):
    expected = _outcome(_row_loop, text)
    from_file = _outcome(_row_loop, _stream(text))
    with patch.object(_util, "_CHUNK_CHARS", chunk):
        assert _outcome(parse_citation_edges, text) == expected
        assert _outcome(parse_citation_edges, _stream(text)) == from_file


def test_each_defect_alone_gives_the_row_loop_outcome():
    for header, plain, odd_cells, parse, row_loop in (
            (CITATIONS_HEADER, (["J1", "0028-0836", "2006", "2005", "3"],
                                ["ABCDEFGHIJ", "J1", "2005", "2001", "12"]),
             (_ODD_IDS, _ODD_IDS) + (_ODD_NUMBERS,) * 3,
             parse_citation_edges, _row_loop),
            (JOURNALS_HEADER, (["J1", "Alpha", "bio;med", "2005", "3"],
                               ["ABCDEFGHIJ", "Beta", "", "2006", "12"]),
             _ODD_JOURNAL_CELLS, parse_journal_metadata, reference_journals)):
        for column, values in enumerate(odd_cells):
            for value in values:
                rows = [list(r) for r in plain]
                rows[1][column] = value
                text = header + "".join(",".join(r) + "\n" for r in rows)
                assert _outcome(parse, text) == _outcome(row_loop, text), text
    # a cell over a lowered csv field size limit (the longest header cell has 11)
    limit = csv.field_size_limit(11)
    try:
        for parse, text in (
                (parse_citation_edges, CITATIONS_HEADER + "J1,ABCDEFGHIJKL,2006,2005,3\n"),
                (parse_journal_metadata, JOURNALS_HEADER + "J1,ABCDEFGHIJKL,,2006,3\n")):
            assert (_outcome(parse, text)
                    == (CsvFormatError, "line 2: field larger than field limit (11)"))
        # a header cell over the limit, above short rows
        csv.field_size_limit(9)
        for parse, text in ((parse_citation_edges, CITATIONS_HEADER + "J1,A,2006,2005,3\n"),
                            (parse_journal_metadata, JOURNALS_HEADER + "J1,Alpha,,2006,3\n")):
            assert (_outcome(parse, text)
                    == (CsvFormatError, "line 1: field larger than field limit (9)"))
    finally:
        csv.field_size_limit(limit)


def test_bytes_not_utf8_after_a_fault_report_the_byte(tmp_path):
    # the file is decoded whole before any row is read, so the byte on the
    # last line is the error, not the zero count on line 2
    data = (CITATIONS_HEADER + "A,B,2006,2005,0\n" + "A,B,2006,2005,1\n" * 2000).encode() + b"\xe9"
    assert _outcome(parse_citation_edges, _stream(data))[0] is UnicodeDecodeError
    path = tmp_path / "citations.csv"
    path.write_bytes(data)
    assert (_outcome(lambda p: _parse_file(parse_citation_edges, p), str(path))
            == (CsvFormatError, f"{path}: line 2003: not valid UTF-8"))


class _Unseekable(io.StringIO):
    """Text that can be read once: ``tell`` fails, as on a pipe."""

    def tell(self):
        raise io.UnsupportedOperation("underlying stream is not seekable")


def test_unseekable_stream_parses_as_its_text():
    text = write_citation_edges(citation_ledger(
        (f"J{i % 7}", f"J{i % 5}", 2006, 2001 + i % 5, 1 + i) for i in range(40)))
    assert parse_citation_edges(_Unseekable(text)) == parse_citation_edges(text)
    lines = text.splitlines(keepends=True)
    bad = "".join(lines[:3] + ["J1,J2,2006,20x5,1\n"] + lines[3:])
    assert (_outcome(parse_citation_edges, _Unseekable(bad))
            == (CsvFormatError, "line 4: malformed cited_year '20x5'"))


def test_plain_citations_skip_the_row_loop(monkeypatch):
    def row_loop(source):
        raise AssertionError("the csv row loop parsed a plain file")
    monkeypatch.setattr(corpus, "_parse_citation_rows", row_loop)
    ids = ("0028-0836", "J1", "ABCDEFGHIJKL", "1476-4687", "Z" * 32, "A")
    small = citation_ledger((ids[i % 6], ids[(i * 7 + 1) % 6], 2000 + i % 9, 1990 + i % 17,
                             1 + i % 250) for i in range(300))
    assert parse_citation_edges(write_citation_edges(small)) == small
    assert parse_citation_edges(write_citation_edges(small).rstrip("\n")) == small
    # a file of many chunks
    rng = np.random.default_rng(3)
    columns = (rng.integers(0, 2000, 70_000), rng.integers(0, 2000, 70_000),
               rng.integers(1990, 2010, 70_000), rng.integers(1990, 2010, 70_000),
               rng.integers(1, 10**6, 70_000))
    big = citation_ledger((f"J{a:05d}", f"J{b:05d}", *rest)
                          for a, b, *rest in zip(*(c.tolist() for c in columns)))
    text = write_citation_edges(big)
    assert len(text) > 4 * _util._CHUNK_CHARS
    assert parse_citation_edges(text) == big
    assert parse_citation_edges(_stream(text)) == big


# ---------------------------------------------------------------------------
# the journals.csv reader against a plain reference row loop
# ---------------------------------------------------------------------------

@st.composite
def _journal_texts(draw):
    """journals.csv texts of plain rows with up to two defects each."""
    rows = []
    for jid in draw(st.lists(st.text(alphabet="ABJXZ0189-.", min_size=1, max_size=12),
                             max_size=4, unique=True)):
        name = draw(st.sampled_from(("Alpha", "Beta Review", "J")))
        fields = draw(st.sampled_from(("", "bio", "bio;med", "med;bio;stats")))
        for year in draw(st.lists(st.integers(1990, 2010), min_size=1, max_size=3, unique=True)):
            rows.append([jid, name, fields, str(year), str(draw(st.integers(0, 3000)))])
    rows = draw(st.permutations(rows))  # interleaves the journals
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.integers(0, len(rows) - 1))
        defect = draw(st.sampled_from(("cell", "cell", "empty cell", "rename", "repeat year",
                                       "other fields", "4 cells", "6 cells", "blank line")))
        if not rows[row]:
            continue
        if defect in ("cell", "empty cell"):
            column = draw(st.integers(0, len(rows[row]) - 1))
            odd = _ODD_JOURNAL_CELLS[column] if defect == "cell" else ("",)
            rows[row][column] = draw(st.sampled_from(odd))
        elif defect == "rename":
            rows[row][1] += "x"
        elif defect == "repeat year":
            rows.insert(draw(st.integers(0, len(rows))), rows[row][:4] + ["7"])
        elif defect == "other fields":
            rows[row][2] = draw(st.sampled_from(("", "stats", "bio; stats", "stats;bio")))
        else:
            rows[row] = {"4 cells": rows[row][:4], "6 cells": rows[row] + ["1"],
                         "blank line": []}[defect]
    end = draw(st.sampled_from(("\n", "\n", "\n", "\r\n")))
    text = JOURNALS_HEADER.replace("\n", end) + "".join(",".join(r) + end for r in rows)
    return draw(st.sampled_from((text, text, text, "\ufeff" + text, text.rstrip("\r\n"))))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=_journal_texts(), chunk=st.sampled_from((1, 7, 30, _util._CHUNK_CHARS)))
@example(text=JOURNALS_HEADER + "A,x,,2005\n7,B,y,,2006,3\n", chunk=30)  # 4 cells, then 6
@example(text=JOURNALS_HEADER + "A,Alpha,bio,2005,1\n A ,Alpha ,bio ; med,2006,2\n", chunk=7)
@example(text=JOURNALS_HEADER + "A,Alpha,,-3,1\nA,Alpha,,2005,-3\n",
         chunk=_util._CHUNK_CHARS)  # one text, two columns
@example(text=JOURNALS_HEADER + 'A,Alpha,"bio\rmed",2005,1\nA,Alpha,,2005,1\n',
         chunk=_util._CHUNK_CHARS)  # a quoted CR ends a line, so the repeat is on line 4
def test_journal_reader_equals_reference_row_loop(text, chunk):
    with patch.object(_util, "_CHUNK_CHARS", chunk):
        assert _outcome(parse_journal_metadata, text) == _outcome(reference_journals, text)
        assert (_outcome(parse_journal_metadata, _stream(text))
                == _outcome(reference_journals, _stream(text)))


def test_paper_scale_journals_round_trip():
    bundled = Path(__file__).parent / "data" / "journals.csv"
    expected = reference_journals(bundled.read_text())
    assert parse_journal_metadata(bundled.read_text()) == expected
    with bundled.open(encoding="utf-8-sig", newline="") as fh:
        assert parse_journal_metadata(fh) == expected
    # a table of the paper's size: 7,611 journals in 200 fields, one quoted
    # name holding a comma and one non-ASCII name among them
    rng = np.random.default_rng(5)
    names = [f"Journal of Synthetic Studies {j + 1}" for j in range(7611)]
    names[10], names[20] = "Studies, Synthetic", "Revista Espa\u00f1ola"
    table = journal_table((
        f"J{j + 1:05d}", names[j], {f"field-{k:03d}" for k in rng.integers(0, 200, 1 + j % 3)},
        {year: int(rng.integers(0, 500)) for year in range(2000 + j % 2, 2007)})
        for j in range(7611))
    text = write_journal_metadata(table)
    assert parse_journal_metadata(text) == table
    assert parse_journal_metadata(_stream(text)) == table


_CELLS = st.text(st.characters(exclude_categories=("Cs",)), max_size=6).filter(
    lambda s: s == s.strip() and "\r" not in s)
_INT64 = st.integers(-2**63, 2**63 - 1)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ids=st.lists(_CELLS.filter(bool), min_size=1, max_size=5, unique=True), data=st.data())
def test_written_files_read_back_as_the_same_objects(ids, data):
    table = journal_table((
        jid, data.draw(_CELLS), set(data.draw(st.lists(_CELLS.filter(
            lambda s: s and ";" not in s), max_size=3))),
        data.draw(st.dictionaries(_INT64, st.integers(0, 2**63 - 1), min_size=1, max_size=3)))
        for jid in ids)
    journal = st.sampled_from(ids)
    ledger = citation_ledger(data.draw(st.lists(st.tuples(
        journal, journal, _INT64, _INT64, st.integers(1, 2**63 - 1)), max_size=6)))
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
