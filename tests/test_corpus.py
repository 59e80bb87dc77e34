import csv
import gzip
import io
import itertools
import re
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenrank import _util, corpus
from eigenrank import (CitationLedger, CitationMatrix, CsvFormatError, JournalTable,
                       MetricScores, PairedObservations, RankComparison, SimulationResult,
                       ValidationError, bigmac_csv, bigmac_fixture, build_citation_matrix,
                       compute_metrics, decomposition_check, impact_factor, normalize_columns,
                       parse_citation_edges, parse_journal_metadata, ratio_analysis,
                       read_scores_csv, total_citations, write_citation_edges,
                       write_journal_metadata)
from eigenrank.cli import _parse_file
from eigenrank.corpus import CitationRecord
from eigenrank.metrics import SCORES_HEADER
from helpers import (citation_ledger, journal_table, random_corpus, reference_citations,
                     reference_journals, reference_label_index, reference_scores)

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


def test_table_and_ledger_never_equal_another_type():
    table, ledger = random_corpus(np.random.default_rng(0))
    for value in (table, ledger):
        assert value != tuple(value.ids) and not value == 0


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


# each type with the columns of a small valid instance: int columns are
# stored as int64, the others as float64
STORED_COLUMNS = {
    "JournalTable": (lambda **c: JournalTable(("A", "B"), ("Alpha", "Beta"), ((), ()), **c),
                     dict(journal=[0, 1], year=[2005, 2005], articles=[1, 2])),
    "CitationLedger": (lambda **c: CitationLedger(("A", "B"), **c),
                       dict(citing=[0], cited=[1], citing_year=[2006], cited_year=[2005],
                            count=[2])),
    "CitationMatrix": (lambda **c: CitationMatrix(("A", "B"), **c, self_cites_excluded=True),
                       dict(row=[1], col=[0], value=[2.0])),
    "PairedObservations": (lambda **c: PairedObservations(("a", "b"), **c),
                           dict(x=[1.0, 2.0], y=[3.0, 4.0])),
    "MetricScores": (lambda **c: MetricScores(None, ("A", "B"), **c),
                     dict(ef=[60.0, 40.0], ai=[1.5, 0.5], impact_factor=[2.0, 1.0],
                          total_citations=[3, 2], n5=[4, 8], n2=[2, 1])),
    "RankComparison": (lambda **c: RankComparison(("a", "b"), **c),
                       dict(score_left=[2.0, 1.0], score_right=[1.0, 2.0], rank_right=[2, 1])),
    "SimulationResult": (lambda **c: SimulationResult(2, **c, mean_rho=0.5, sd_rho=0.1, seed=0),
                         dict(rho=[0.4, 0.6])),
}


@pytest.mark.parametrize("build, columns", STORED_COLUMNS.values(), ids=STORED_COLUMNS)
def test_stored_columns_are_read_only(build, columns):
    # an array of the stored dtype is stored as it is, made read-only in place
    # (the parsers hand a paper-scale ledger over without a copy); anything
    # else is converted once
    arrays = {name: np.array(values) for name, values in columns.items()}
    assert {a.dtype for a in arrays.values()} <= {np.dtype(np.int64), np.dtype(float)}
    handed_over, converted = build(**arrays), build(**columns)
    for name, given in arrays.items():
        assert getattr(handed_over, name) is given and not given.flags.writeable
        stored = getattr(converted, name)
        assert stored.dtype == given.dtype and stored.tolist() == columns[name]
        for values in (given, stored):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 5
    with pytest.raises(AttributeError):
        setattr(converted, name, stored.copy())


def test_parsed_and_computed_columns_are_read_only():
    table = parse_journal_metadata(JOURNALS_HEADER + "A,Alpha,,2005,10\nB,Beta,,2005,3\n")
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,B,2006,2005,2\nB,A,2006,2005,1\n")
    scores, _ = compute_metrics(table, ledger, 2006)
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
    h, _ = normalize_columns(z)
    assert h.row is z.row and h.col is z.col  # the normalized matrix shares its triplets
    columns = [getattr(table, name) for name in ("journal", "year", "articles", "offsets",
                                                 "members")]
    columns += [getattr(ledger, name) for name in corpus._LEDGER_COLUMNS]
    columns += [getattr(scores, name) for name in SCORES_HEADER[1:]]
    columns += [h.row, h.col, h.value, decomposition_check(scores).scale,
                ratio_analysis(scores.ef, scores.total_citations, scores.journal_ids).normalized]
    for values in columns:
        assert isinstance(values, np.ndarray) and not values.flags.writeable


def test_validate_rejects_unknown_ids_and_flags_noisy_records():
    # validate, iteration and CitationRecord are kept only for the benchmark's
    # tracer (perfbench/tracing.py), which wraps validate and __iter__
    table = parse_journal_metadata(JOURNALS_HEADER + "A,Alpha,,2005,10\nB,Beta,,2005,3\n")
    ledger = parse_citation_edges(CITATIONS_HEADER + "A,X,2006,2005,1\nY,B,2006,2005,2\n")
    with pytest.raises(ValidationError, match="'X', 'Y'"):
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


def test_citation_matrix_keeps_narrow_positions(monkeypatch):
    # row and col follow the ledger's rule: a signed array of any width is
    # kept as it is and made read-only in place, a list becomes int64.  (The
    # read-only test above builds its arrays from lists, so int64 only.)
    row, col = np.array([1], np.int16), np.array([0], np.int16)
    z = CitationMatrix(("A", "B"), row, col, [2.0], True)
    assert z.row is row and z.col is col and not (row.flags.writeable or col.flags.writeable)
    listed = CitationMatrix(("A", "B"), [1], [0], [2.0], True)
    assert listed.row.dtype == listed.col.dtype == np.int64
    # with 300 journals col * 300 + row passes 32767, so an order check that
    # formed it in int16 would wrap: 110 * 300 reads as -32536 < 100 * 300
    ids = tuple(f"J{k:03d}" for k in range(300))

    def matrix(row, col):
        return CitationMatrix(ids, np.array(row, np.int16), np.array(col, np.int16),
                              np.ones(len(row)), False)

    assert matrix([0, 0, 299], [100, 110, 299]).col.tolist() == [100, 110, 299]
    for row, col in (([0, 0], [110, 100]), ([0, 0], [110, 110]), ([299, 0], [110, 110])):
        with pytest.raises(ValidationError, match="sorted"):
            matrix(row, col)
    # matrix @ x adds each row's products in entry order, as bincount does,
    # within a block and across the edges of 7-entry blocks alike
    rng = np.random.default_rng(16)
    for block in (_util._BLOCK, 7):
        monkeypatch.setattr(_util, "_BLOCK", block)
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            for _ in range(5):
                n = int(rng.integers(1, 100))
                col, row = np.nonzero(rng.random((n, n)) < rng.random())  # sorted, col first
                value = rng.uniform(0.5, 1.5, len(row)) * 10.0 ** rng.integers(-9, 9, len(row))
                x = rng.uniform(0.5, 1.5, n) * 10.0 ** rng.integers(-9, 9, n)
                z = CitationMatrix(ids[:n], row.astype(dtype), col.astype(dtype), value, False)
                assert z.row.dtype == dtype
                want = np.bincount(row, weights=value * x[col], minlength=n)
                assert (z @ x).tobytes() == want.tobytes()


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


def _matrix(row=(1,), col=(0,), value=(2.0,)):
    return CitationMatrix(("A", "B"), row, col, value, self_cites_excluded=False)


def _scores(**columns):
    return MetricScores(None, ("A",), **{**dict(ef=(1.0,), ai=(1.0,), impact_factor=(1.0,),
                                                total_citations=(1,), n5=(1,), n2=(1,)),
                                         **columns})


def _ranks(rank_right=(1, 2)):
    return RankComparison(("a", "b"), (2.0, 1.0), (2.0, 1.0), rank_right)


def test_table_invariants_rejected():
    assert _table() == journal_table([("A", "Alpha", (), {2005: 1})])
    assert len(_ledger()) == 1
    assert (len(_matrix().row), len(_scores()), len(_ranks())) == (1, 1, 2)
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
            (_matrix, dict(row=(1.7,)), "^row must hold integers, got 1.7$"),
            (_matrix, dict(row=(True,)), "^row must hold integers, got True$"),
            (_matrix, dict(col=np.array([0.0])), "^col must hold integers"),
            (_scores, dict(total_citations=(2.9,)),
             "^total_citations must hold integers, got 2.9$"),
            (_scores, dict(n5=(True,)), "^n5 must hold integers, got True$"),
            (_ranks, dict(rank_right=(2.5, 1.2)), "^rank_right must hold integers, got 2.5$"),
            # a count past int64, not an OverflowError
            (_ledger, dict(count=(2**64,)), f"^record 0: count {2**64} out of range"),
            (_scores, dict(total_citations=(2**64,)),
             f"^journal 0: total_citations {2**64} out of range"),
            (_matrix, dict(row=(2**64,)), f"^entry 0: row {2**64} out of range"),
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
            # the first offending row is named: in the order given, and in (journal, year) order
            (_table, dict(ids=("A", "B"), names=("a", "b"), fields=((), ()), journal=(1, 0),
                          year=(2005, 2005), articles=(-1, -2)),
             "^journal 'B' has a negative article count$"),
            (_table, dict(ids=("A", "B"), names=("a", "b"), fields=((), ()), journal=(1, 1, 0, 0),
                          year=(2006, 2006, 2005, 2005), articles=(1,) * 4),
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
    # mixed with signed cells, which numpy would hold together as float64
    table = _table(journal=(0, 0), year=[np.uint64(2**63 - 1), -1], articles=(1, 1))
    assert table.year.tolist() == [-1, 2**63 - 1]


def test_table_raises_the_first_journals_name_or_label_error():
    # names are checked before labels over all journals, but the error is
    # the one the journals checked in order give first
    ids, rows = ("A", "B", "C"), dict(journal=(0, 1, 2), year=(2005,) * 3, articles=(1,) * 3)
    for names, fields, message in (
            (("Alpha", "Beta ", "Gamma"), ({"bio"}, {"med;x"}, set()),
             "journal 'B' name 'Beta '"),
            (("Alpha", "Beta", "Gamma\r"), ({"bio"}, {"med;x"}, set()),
             "journal 'B' field label 'med;x' holds ';'"),
            (("Alpha", "Beta", "Gamma\r"), ({"bio"}, {" med", "bio"}, {""}),
             "journal 'B' field label ' med' cannot be written"),
            (("Alpha", "Beta", "Gamma"), ({"bio"}, {"med"}, "stats"),
             "journal 'C' fields must be a set of labels, not the string 'stats'")):
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            _table(ids=ids, names=names, fields=fields, **rows)


# names and labels that read back from journals.csv as themselves, and ones that do not
_GOOD_NAMES, _BAD_NAMES = ("Alpha", "Beta", ""), ("Beta ", "Ga\rmma", " med")
_GOOD_LABELS, _BAD_LABELS = ("bio", "med", "stats"), ("", " med", "a;b", "x\r", "bio ")


@st.composite
def _journal_columns(draw):
    """The ids, names and fields of 1-5 journals, drawn from pools of good
    and bad names and labels; labels are often shared, a fields value is
    sometimes a list that may repeat a label, and sometimes a string."""
    names = _GOOD_NAMES + (_BAD_NAMES if draw(st.booleans()) else ())
    labels = _GOOD_LABELS + (_BAD_LABELS if draw(st.booleans()) else ())
    journals = draw(st.lists(st.tuples(
        st.sampled_from(names),
        st.one_of(st.sets(st.sampled_from(labels), max_size=3),
                  st.lists(st.sampled_from(labels), max_size=4), st.sampled_from(labels))),
        min_size=1, max_size=5))
    return [f"J{j}" for j in range(len(journals))], *zip(*journals)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(columns=_journal_columns())
@example(columns=(("A", "B"), ("Alpha", "Beta"), ({"a;b"}, {"a;b"})))  # named at its first carrier
@example(columns=(("A", "B"), ("Alpha", "Beta "), ({"bio"}, {"bio", ""})))  # name before label
@example(columns=(("A", "B"), ("Alpha", "Beta"), (["bio", "bio"], ["med", "bio", "med"])))
def test_table_raises_the_reference_first_error_or_builds_its_label_index(columns):
    ids = columns[0]
    rows = dict(journal=range(len(ids)), year=(2005,) * len(ids), articles=(1,) * len(ids))
    try:
        expected = reference_label_index(*columns)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match="^" + re.escape(str(exc)) + "$"):
            JournalTable(*columns, **rows)
    else:
        table = JournalTable(*columns, **rows)
        assert (list(table.labels), table.offsets.tolist(), table.members.tolist()) == expected


def test_a_repeated_label_is_indexed_once():
    table = JournalTable(("A",), ("a",), (["bio", "bio"],), (0,), (2005,), (1,))
    assert table.members_of("bio") == ("A",)
    assert table.offsets.tolist() == [0, 1]
    text = write_journal_metadata(table)
    assert text.splitlines()[1] == "A,a,bio,2005,1"
    assert parse_journal_metadata(text) == table


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
            "J\x1f", "Z" * 33, '"A\nB"')
_ODD_NUMBERS = ("0", "0007", "+5", "-3", "1_000", "9" * 18, "9" * 19, "12345678901234567890",
                " 2003", "2003 ", "", "\u0663", "7\t", "1:")  # ':' is the byte after '9'

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
@example(text=CITATIONS_HEADER + "MocCRNN1fv%UylLw,A,2006,2005,1\nA,|{}X9w6QsY)I3>(J,2006,2005,1\n",
         chunk=1)  # the same two ids, in two chunks
@example(text=CITATIONS_HEADER + "MocCRNN1fv%UylLw,|{}X9w6QsY)I3>(J,2006,2005,1\n",
         chunk=7)  # the same two ids, new in one kernel chunk
@example(text=CITATIONS_HEADER + "0028-0836,A,2006,2005,1\n0028-0837,A,2006,2005,1\n",
         chunk=7)  # two 9-byte ids that share their first word, in two chunks
@example(text=CITATIONS_HEADER + "Z" * 33 + ",A,2006,2005,1\n", chunk=7)  # an id over 32 bytes
@example(text='"citing_id\n"' + CITATIONS_HEADER[9:] + "A,B,2006,2005,1\n",
         chunk=1)  # the first piece ends inside the header row's quoted cell
@example(text=CITATIONS_HEADER + "A,B,2006,2005,1\nA,B," + "9" * 19 + ",2005,1\n",
         chunk=20)  # a 19-digit year, past int64
@example(text=CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,2006," + "9" * 19 + ",1\n", chunk=20)
@example(text=CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,2006,-" + "9" * 19 + ",1\n",
         chunk=20)  # 19 digits, below int64
# integers at any length: leading zeros, and past int64 where int() refuses the text
@example(text=CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,2006," + "0" * 5000 + "7,1\n", chunk=20)
@example(text=CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,2006,2005," + "9" * 5000 + "\n", chunk=20)
@example(text=CITATIONS_HEADER + "A,B,2006,2005,1\nA,B,-" + "9" * 4301 + ",2005,1\n", chunk=20)
@example(text=CITATIONS_HEADER + "A,B,2006,2005,1\n\"A\nB\",B,2006,2005,x\n",
         chunk=_util._CHUNK_CHARS)  # a fault named at its row's first line, 3
def test_vectorised_reader_equals_row_loop(text, chunk):
    expected = _outcome(reference_citations, text)
    from_file = _outcome(reference_citations, _stream(text))
    with patch.object(_util, "_CHUNK_CHARS", chunk):
        assert _outcome(parse_citation_edges, text) == expected
        assert _outcome(parse_citation_edges, _stream(text)) == from_file


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.text(alphabet='ab,"\r\n'), chunk=st.integers(1, 12))
@example(text="a\ra", chunk=1)  # a CR-only line end
def test_text_and_file_split_into_the_same_pieces(text, chunk):
    with patch.object(_util, "_CHUNK_CHARS", chunk):
        assert list(_util.pieces(text)) == list(_util.pieces(_stream(text)))


def test_each_defect_alone_gives_the_row_loop_outcome():
    # every chunk size reaches the kernels, from a row a chunk to the whole text in one
    for header, plain, odd_cells, parse, row_loop in (
            (CITATIONS_HEADER, (["J1", "0028-0836", "2006", "2005", "3"],
                                ["ABCDEFGHIJ", "J1", "2005", "2001", "12"]),
             (_ODD_IDS, _ODD_IDS) + (_ODD_NUMBERS,) * 3,
             parse_citation_edges, reference_citations),
            (JOURNALS_HEADER, (["J1", "Alpha", "bio;med", "2005", "3"],
                               ["ABCDEFGHIJ", "Beta", "", "2006", "12"]),
             _ODD_JOURNAL_CELLS, parse_journal_metadata, reference_journals)):
        for column, values in enumerate(odd_cells):
            for value in values:
                rows = [list(r) for r in plain]
                rows[1][column] = value
                text = header + "".join(",".join(r) + "\n" for r in rows)
                expected = _outcome(row_loop, text)
                for chunk in (1, 7, 20, 40, 64, _util._CHUNK_CHARS):
                    with patch.object(_util, "_CHUNK_CHARS", chunk):
                        assert _outcome(parse, text) == expected, (chunk, text)
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


def _narrowest(values):
    """The narrowest signed integer type holding every one of ``values``."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if all(np.iinfo(t).min <= v <= np.iinfo(t).max for v in values))


def test_parsed_ledger_columns_widen_to_the_narrowest_type_that_holds_them():
    # the first chunk fits int8 in every column; later chunks need int32
    # codes (more than 32,767 ids) and int64 for one year and one count
    rows = [f"J{i % 50},J{(i + 7) % 50},100,99,{1 + i % 100}\n" for i in range(300)]
    rows += [f"K{i},J{i % 50},100,{99 - i % 3},{1 + i % 9}\n" for i in range(33_000)]
    rows[20_000] = "K20000,J1,100,-9223372036854775808,3\n"
    rows[30_000] = "K30000,J2,100,98,9223372036854775807\n"
    text = CITATIONS_HEADER + "".join(rows)
    expected = reference_citations(text)
    assert len(expected.ids) > 2**15
    columns = [getattr(expected, name).tolist() for name in corpus._LEDGER_COLUMNS]
    dtypes = [_narrowest(values) for values in columns]
    assert dtypes == [np.int32, np.int8, np.int8, np.int64, np.int64]
    with patch.object(_util, "_CHUNK_CHARS", 4096):
        assert len(next(_util.pieces(text))) < 300 * len(rows[0])  # the first chunk: int8
        for source in (text, _stream(text)):
            ledger = parse_citation_edges(source)
            assert ledger.ids == expected.ids
            assert [getattr(ledger, name).tolist() for name in corpus._LEDGER_COLUMNS] == columns
            assert [getattr(ledger, name).dtype for name in corpus._LEDGER_COLUMNS] == dtypes


def _new_arrays(monkeypatch):
    """(rows held, rows of room, type) for each array ``_util._room`` makes."""
    made, room = [], _util._room

    def recorded(values, held, rows, dtype):
        out = room(values, held, rows, dtype)
        if out is not values:
            made.append((held, len(out), out.dtype))
        return out
    monkeypatch.setattr(_util, "_room", recorded)
    return made


class _ReadLines:
    """Text with only ``read`` and ``readline``, as a text wrapper over a tar
    member, which has no ``fileno``."""

    def __init__(self, text):
        self._text = io.StringIO(text, newline="")

    def read(self, size=-1):
        return self._text.read(size)

    def readline(self):
        return self._text.readline()


_GROWN = ("no size", "no fileno", "compressed size")  # sources whose arrays double


@pytest.mark.parametrize("case", _GROWN + ("short estimate", "wider count"))
def test_chunk_columns_grow_and_widen_into_the_row_loop_ledger(case, tmp_path, monkeypatch):
    # the chunk columns go into arrays sized from the source's length at the
    # rows a character read so far: a source with no size, or a size that the
    # characters read pass (a gzip file's), doubles them; a first chunk of
    # long rows sizes them short and a later chunk grows them; and a count
    # past int8 after they are made widens that column.  Each array is cut
    # to the rows read at the end.
    rows = [f"J{i % 300},K{i % 7},2006,2005,{1 + i % 9}\n" for i in range(3000)]
    if case == "short estimate":
        rows[:100] = [f"{'L' * 30}{i},{'M' * 30}{i},2006,2005,1\n" for i in range(100)]
    elif case == "wider count":
        rows[-1] = "J1,K1,2006,2005,300\n"
    text = CITATIONS_HEADER + "".join(rows)
    expected = reference_citations(text)
    path = tmp_path / "citations.csv"
    path.write_text(text, encoding="utf-8")
    with gzip.open(tmp_path / "citations.csv.gz", "wt", encoding="utf-8", newline="") as fh:
        fh.write(text)
    source = {"no size": lambda: io.StringIO(text, newline=""),
              "no fileno": lambda: _ReadLines(text),
              "compressed size": lambda: gzip.open(tmp_path / "citations.csv.gz", "rt",
                                                   encoding="utf-8", newline="")}.get(
        case, lambda: open(path, encoding="utf-8", newline=""))()
    made = _new_arrays(monkeypatch)
    with patch.object(_util, "_CHUNK_CHARS", 4096):
        ledger = parse_citation_edges(source)
    getattr(source, "close", lambda: None)()
    assert ledger.ids == expected.ids
    columns = [getattr(expected, name).tolist() for name in corpus._LEDGER_COLUMNS]
    assert ([(getattr(ledger, name).dtype, getattr(ledger, name).tolist())
             for name in corpus._LEDGER_COLUMNS]
            == [(_narrowest(values), values) for values in columns])
    for name in corpus._LEDGER_COLUMNS:  # no room past the rows is kept
        values = getattr(ledger, name)
        assert (values if values.base is None else values.base).nbytes == values.nbytes
    first, last = made[0][1], made[-1][1]  # the rows of the first and the last arrays made
    later = [(held, dtype) for held, _, dtype in made if held]  # arrays made after the first
    if case in _GROWN:
        assert len(later) >= 2 * len(corpus._LEDGER_COLUMNS)  # doubled twice at least
        if case != "compressed size":  # with no size, the first are twice the first chunk's rows
            with patch.object(_util, "_CHUNK_CHARS", 4096):
                end = next(_util.pieces(text)).count("\n") - 1  # after the header
            assert first == 2 * end + (2 * end >> 7)
    elif case == "short estimate":
        # the last, made for the last chunk once every character is read: the
        # rows at the size's estimate, exact by then, and its 1/128 slack
        assert first < len(rows) and last == len(rows) + (len(rows) >> 7)
    else:
        assert first >= len(rows) and later == [(later[0][0], np.dtype(np.int16))]


def test_parsed_journal_and_score_columns_skip_the_per_cell_check(monkeypatch):
    # their narrowed integer columns reach int64 by one conversion each
    def per_cell(*args):
        raise AssertionError("a parsed column went through the per-cell check")
    monkeypatch.setattr(_util, "_int64_cells", per_cell)
    text = JOURNALS_HEADER + "".join(f"J{j},Journal {j},bio,{year},{j % 300}\n"
                                     for j in range(200) for year in range(2000, 2007))
    scores = "".join(f"J{j},1.5,0.5,,{j},{j * 1000},{j % 7}\n" for j in range(2000))
    with patch.object(_util, "_CHUNK_CHARS", 2000):
        table = parse_journal_metadata(text)
        assert table.year.dtype == table.articles.dtype == np.int64 and len(table) == 200
        read = read_scores_csv(",".join(SCORES_HEADER) + "\n" + scores)
        assert read.n5.dtype == np.int64 and read.n5[-1] == 1_999_000


# each case: a file of rows made from ``row``, up to line 99, with its
# faults put on their lines; the first fault is on line 40, in the fifth
# chunk of 120 characters or later
_LATE_FAULTS = {
    "citations cell": (parse_citation_edges, reference_citations, CITATIONS_HEADER,
                       "J{i},J{j},2006,2005,{n}\n", {40: "J1,J2,2006,2005,x\n"},
                       "line 40: malformed count 'x'"),
    "journals cell": (parse_journal_metadata, reference_journals, JOURNALS_HEADER,
                      "J{i},Journal {i},bio,{y},{n}\n", {40: "J1,Journal 1,bio,20x5,3\n"},
                      "line 40: malformed year '20x5'"),
    "scores cell": (read_scores_csv, reference_scores, ",".join(SCORES_HEADER) + "\n",
                    "J{i},1.5,0.5,,{n},3,1\n", {40: "K1,zero,0.5,,1,3,1\n"},
                    "line 40: malformed ef 'zero'"),
    "journal renamed": (parse_journal_metadata, reference_journals, JOURNALS_HEADER,
                        "J{i},Journal {i},bio,{y},{n}\n",
                        {40: "J3,Journal 3 Review,bio,1990,3\n"},
                        "line 40: journal 'J3' renamed ('Journal 3' -> 'Journal 3 Review')"),
    # both rows kernel-read; a malformed cell after the repeat does not decide
    "journal year repeated": (parse_journal_metadata, reference_journals, JOURNALS_HEADER,
                              "J{i},Journal {i},bio,{y},{n}\n",
                              {40: "J3,Journal 3,bio,2003,9\n", 70: "J1,Journal 1,bio,x,1\n"},
                              "line 40: duplicate journal_id 'J3' for year 2003"),
    "score id repeated": (read_scores_csv, reference_scores, ",".join(SCORES_HEADER) + "\n",
                          "J{i},1.5,0.5,,{n},3,1\n", {40: "J5,1.5,0.5,,1,3,1\n"},
                          "line 40: duplicate journal_id 'J5'"),
    # a quoted id that runs to the end of the file: named at its row's first line
    "quote open at the end": (parse_citation_edges, reference_citations, CITATIONS_HEADER,
                              "J{i},J{j},2006,2005,{n}\n", {98: '"J1,J2,2006,2005,1\n'},
                              "line 98: expected 5 columns, got 1"),
}


@pytest.mark.parametrize("parse, row_loop, header, row, faults, message", _LATE_FAULTS.values(),
                         ids=_LATE_FAULTS)
def test_fault_in_a_later_chunk_gives_the_row_loop_outcome(parse, row_loop, header, row, faults,
                                                          message):
    lines = [header] + [row.format(i=i, j=i * 7 % 11, y=2000 + i % 7, n=1 + i % 5)
                        for i in range(2, 100)]
    for line, text in faults.items():
        lines[line - 1] = text
    text = "".join(lines)
    expected = (CsvFormatError, message)
    assert _outcome(row_loop, text) == expected
    with patch.object(_util, "_CHUNK_CHARS", 120):
        assert len(list(_util.pieces("".join(lines[:min(faults)])))) >= 5
        assert _outcome(parse, text) == expected
        assert _outcome(parse, _Unseekable(text)) == expected


def test_repeated_year_in_kernel_read_chunks_is_found_by_the_reader(monkeypatch):
    # the kernel reads both rows' chunks; the later one is declined, and rows()
    # raises at its line, before JournalTable is built
    def built(*args):
        raise AssertionError("JournalTable was built")
    monkeypatch.setattr(corpus, "JournalTable", built)
    read = []
    rows = corpus._JournalRows.rows
    monkeypatch.setattr(corpus._JournalRows, "rows", lambda self, rdr: read.append(1) or rows(
        self, rdr))
    text = JOURNALS_HEADER + "".join(f"J{i},Journal {i},bio,{2000 + i % 7},1\n"
                                     for i in range(2, 100))
    text = text.replace("J47,Journal 47,bio,2005,1\n", "J5,Journal 5,bio,2005,2\n")
    with patch.object(_util, "_CHUNK_CHARS", 120):
        assert (_outcome(parse_journal_metadata, text)
                == (CsvFormatError, "line 47: duplicate journal_id 'J5' for year 2005"))
    assert read == [1]


def test_bytes_not_utf8_in_a_later_chunk_than_a_fault_report_the_byte(tmp_path):
    # the zero count is in the first chunk and the byte past the third: the
    # rest of the file is read before the zero count is raised
    data = (CITATIONS_HEADER + "A,B,2006,2005,0\n"
            + "A,B,2006,2005,1\n" * 6000).encode() + b"\xe9\n"
    path = tmp_path / "citations.csv"
    path.write_bytes(data)
    with patch.object(_util, "_CHUNK_CHARS", 16384):
        assert len(data) > 5 * 16384
        assert (_outcome(lambda p: _parse_file(parse_citation_edges, p), str(path))
                == (CsvFormatError, f"{path}: line 6003: not valid UTF-8"))


class _Recorded:
    """A ``CsvRows`` that appends each row to ``read`` as it is read."""

    def __init__(self, rows, read):
        self._rows, self._read = rows, read

    def __iter__(self):
        for row in self._rows:
            self._read.append(row)
            yield row

    def __getattr__(self, name):
        return getattr(self._rows, name)


def _rows_read(monkeypatch, *readers):
    """The rows that each call of a ``reader.rows`` reads, one list a call."""
    calls = []
    for reader in readers:
        def recorded(self, rdr, rows=reader.rows):
            calls.append(read := [])
            return rows(self, _Recorded(rdr, read))
        monkeypatch.setattr(reader, "rows", recorded)
    return calls


def _odd(row):
    """Whether ``row`` has a cell that is not ASCII or needs quotes."""
    return any(not cell.isascii() or any(c in cell for c in ',"\r\n') for cell in row)


def test_plain_citations_skip_the_row_loop(monkeypatch):
    # rows() may read the empty end chunk, but no plain row, whatever the file's size
    calls = _rows_read(monkeypatch, corpus._CitationRows)
    ids = ("0028-0836", "J1", "ABCDEFGHIJKL", "1476-4687", "Z" * 32, "A")
    small = citation_ledger((ids[i % 6], ids[(i * 7 + 1) % 6], 2000 + i % 9, 1990 + i % 17,
                             1 + i % 250) for i in range(300))
    for chunk in (1000, _util._CHUNK_CHARS):  # many chunks, and one
        with patch.object(_util, "_CHUNK_CHARS", chunk):
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
    assert calls and not any(calls)


def test_odd_cells_send_only_their_chunks_to_the_row_loop(monkeypatch):
    """About 1% odd cells (quoted names holding a comma or a quote,
    non-ASCII names and ids) at paper scale: each chunk holding one is read
    by the row loop alone, and no chunk without one."""
    calls = _rows_read(monkeypatch, corpus._JournalRows, corpus._CitationRows)
    rng = np.random.default_rng(12)
    n = 7611
    names = [f"Journal of Synthetic Studies {j + 1}" for j in range(n)]
    for k, j in enumerate(rng.choice(n, n // 100, replace=False).tolist()):
        names[j] = ("Studies, Synthetic {}", "Revista Espa\u00f1ola {}",
                    'The "Q" {}')[k % 3].format(j)
    table = journal_table((
        f"J{j + 1:05d}", names[j], {f"field-{k:03d}" for k in rng.integers(0, 200, 1 + j % 3)},
        {year: int(rng.integers(0, 500)) for year in range(2000 + j % 2, 2007)})
        for j in range(n))
    assert parse_journal_metadata(write_journal_metadata(table)) == table
    ids = [f"J{j + 1:05d}" for j in range(n)]
    for k, j in enumerate(rng.choice(n, 40, replace=False).tolist()):
        ids[j] = ("J\u00e9{}", "J,{}")[k % 2].format(j)
    rows = 100_000
    citing, cited = rng.integers(0, n, rows), rng.integers(0, n, rows)
    odd = np.flatnonzero([jid != f"J{j + 1:05d}" for j, jid in enumerate(ids)])
    picked = rng.random(rows) < 0.01
    citing[picked] = rng.choice(odd, picked.sum())
    ledger = citation_ledger((ids[a], ids[b], 2006, 2001 + b % 5, 1 + a % 7)
                             for a, b in zip(citing.tolist(), cited.tolist()))
    assert parse_citation_edges(write_citation_edges(ledger)) == ledger
    assert any(calls) and all(any(map(_odd, read)) for read in calls if read)


def test_quoted_cell_open_at_a_chunk_end_is_joined_to_the_next(monkeypatch):
    calls = _rows_read(monkeypatch, corpus._JournalRows)
    text = (JOURNALS_HEADER + "A,Alpha,bio,2005,1\n"
            + "".join(f'B,"Beta\nReview, Letters",med,{year},2\n' for year in (2004, 2005))
            + 'C,Gamma,"bio;\r\nmed",2006,3\nC,Gamma,stats,2005,3\n')
    for chunk in (1, 7, 30, len(text) - 1):
        with patch.object(_util, "_CHUNK_CHARS", chunk):
            assert parse_journal_metadata(text) == reference_journals(text)
            assert parse_journal_metadata(_stream(text)) == reference_journals(text)
    assert any(calls) and all(any(map(_odd, read)) for read in calls if read)


def _id_chunk(interner, cells):
    """The codes ``interner`` gives the id ``cells`` of one chunk."""
    text = ",".join(cells) + "\n"
    lengths = np.array([len(c) for c in cells], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths[:-1] + 1)))
    return interner.codes(text, (text + _util._PAD).encode("ascii"), starts, lengths)


def _last_slot_ids(interner, count):
    """``count`` new one-word ids whose probe starts at the table's last slot."""
    size, found = len(interner._keys), []
    for block in itertools.count():
        cells = [f"W{i}" for i in range(block * size, (block + 1) * size)]
        keys = np.array([int.from_bytes(c.encode(), "little") for c in cells], dtype=np.uint64)
        found += [cells[k] for k in np.flatnonzero(interner._home(keys) == size - 1)]
        if len(found) >= count:
            return found[:count]


def test_id_interner_equals_first_seen_dict_across_doublings():
    rng = np.random.default_rng(16)
    interner, reference, sizes = _util._IdCodes(), {}, set()

    def feed(cells):
        expected = [reference.setdefault(c, len(reference)) for c in cells]
        assert _id_chunk(interner, cells).tolist() == expected
        assert interner.ids[-len(cells):] == list(reference)[-len(cells):]
        held = np.flatnonzero(interner._keys)
        # the smallest table of at least 1,024 slots that the ids fill at most half of
        assert len(held) == len(reference)
        assert len(interner._keys) == max(1 << 10, 1 << (2 * len(held) - 1).bit_length())
        sizes.add(len(interner._keys))
        return held

    def feed_past_the_end():
        ends = _last_slot_ids(interner, 3)
        held = feed(ends)
        # two of them probe past the table's end and are stored at its start
        assert (held < interner._home(interner._keys[held])).sum() >= 2
        feed(ends[::-1] + list(reference)[:5])  # found again by probes that wrap

    feed_past_the_end()
    feed([f"H{i}" for i in range(1024 - len(reference))])  # ids that fill exactly half of 2,048
    # one-word ids, two-word ISSN-like ids and ids of up to 32 bytes
    pool = [(f"J{i:05d}", f"{i // 7:04d}-{i % 7 * 1111:04d}", f"Journal-of-Long-Ids-{i:012d}",
             f"Q{i}")[i % 4] for i in range(24_000)]
    rng.shuffle(pool)
    fed = 0
    while fed < len(pool):
        # up to 150 new ids a chunk, some twice, and repeats of ids seen before
        new = pool[fed:fed + int(rng.integers(1, 150))]
        cells = new + new[:3] + [pool[k] for k in rng.integers(0, fed + 1, 100)]
        fed += len(new)
        feed([cells[k] for k in rng.permutation(len(cells))])
    feed_past_the_end()
    assert sizes == {1 << k for k in range(10, 17)} and len(reference) == 25_027
    assert interner.ids == list(reference)
    # every id again, in one chunk, in another order
    ids = list(reference)
    feed([ids[k] for k in rng.permutation(len(ids))])


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
@example(text=JOURNALS_HEADER + "Z" * 33 + ",Alpha,bio,2005,1\n", chunk=7)  # a 33-byte id
# integers at any length: leading zeros, and past int64 where int() refuses the text
@example(text=JOURNALS_HEADER + "A,Alpha,bio,2004,1\nA,Alpha,bio," + "0" * 5000 + "2005,3\n",
         chunk=20)
@example(text=JOURNALS_HEADER + "A,Alpha,bio,2004,1\nA,Alpha,bio,2005," + "9" * 5000 + "\n",
         chunk=20)
@example(text=JOURNALS_HEADER + "A,Alpha,bio,2004,1\nA,Alpha,bio,-" + "9" * 4301 + ",3\n",
         chunk=20)
# a chunk the kernel codes the ids of, a new journal among them, before it finds a rename
# or a repeated year: in one chunk, and in a chunk of two rows after the one before
@example(text=JOURNALS_HEADER + "A,Alpha,bio,2004,1\nB,Beta,med,2005,2\nA,Alpha,bio,2004,3\n",
         chunk=_util._CHUNK_CHARS)
@example(text=JOURNALS_HEADER + "A,Alpha,bio,2004,1\nB,Beta,med,2005,2\nC,Gamma,,2005,3\n"
         "A,Alpha Review,bio,2005,4\n", chunk=25)
@example(text=JOURNALS_HEADER + 'A,Alpha,bio,2004,1\nB,"Be\nta",med,2005,x\n',
         chunk=_util._CHUNK_CHARS)  # a fault named at its row's first line, 3
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
