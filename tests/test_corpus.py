import numpy as np
import pytest

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
