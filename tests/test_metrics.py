import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenrank import _util
from eigenrank import (CitationLedger, CitationMatrix, ConvergenceError, CsvFormatError,
                       DegenerateDataError, InconsistencyError, JournalTable,
                       ValidationError, article_influence, article_vector,
                       build_citation_matrix, compute_metrics, decomposition_check,
                       impact_factor, normalize_columns, parse_citation_edges,
                       parse_journal_metadata, power_iterate, read_scores_csv,
                       resolve_metric, total_citations, write_citation_edges,
                       write_scores_csv)
from eigenrank.metrics import SCORES_HEADER, MetricScores, _ScoreRows
from helpers import (citation_ledger, dense_reference_scores, journal_table, ledger_rows,
                     random_corpus, reference_counts, reference_scores)


def make_table(article_counts, year=2005):
    return journal_table((f"J{i:02d}", f"Journal {i}", (), {year: c})
                         for i, c in enumerate(article_counts))


# ---------------------------------------------------------------------------
# article vector
# ---------------------------------------------------------------------------

def test_article_vector_is_share_of_total():
    a = article_vector(make_table([10, 30]), 2006, 5)
    assert np.allclose(a, [0.25, 0.75])


def test_article_vector_single_journal():
    assert article_vector(make_table([4]), 2006, 5).tolist() == [1.0]


def test_article_vector_all_zero_is_degenerate():
    with pytest.raises(DegenerateDataError):
        article_vector(make_table([0, 0]), 2006, 5)


# ---------------------------------------------------------------------------
# column normalization
# ---------------------------------------------------------------------------

def _matrix_from_records(records, n=3, exclude_self=False):
    table = make_table([5] * n)
    ledger = citation_ledger(records)
    return build_citation_matrix(ledger, table, 2006, 5, exclude_self=exclude_self)


def test_normalize_columns_simple():
    z = _matrix_from_records([("J01", "J00", 2006, 2005, 2),
                              ("J01", "J02", 2006, 2005, 3)], n=3)
    h, dangling = normalize_columns(z)
    col = np.zeros(3)
    col[h.row[h.col == 1]] = h.value[h.col == 1]
    assert np.allclose(sorted(col), [0.0, 0.4, 0.6])
    assert dangling.tolist() == [0, 2]  # only J01 gives citations


def test_normalize_columns_zero_column_is_dangling():
    z = _matrix_from_records([("J00", "J01", 2006, 2005, 2)], n=3)
    _, dangling = normalize_columns(z)
    assert dangling.tolist() == [1, 2]


def test_normalize_columns_refuses_an_entry_that_rounds_to_zero():
    # 5e-324 / 1e300 is below the least positive float
    z = CitationMatrix(("A", "B", "C"), np.array([0, 2]), np.array([1, 1]),
                       np.array([5e-324, 1e300]), False)
    with pytest.raises(ValidationError,
                       match="^stored citation entries must be strictly positive$"):
        normalize_columns(z)


def test_normalize_columns_random_matrix_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        records = [(f"J{i:02d}", f"J{j:02d}", 2006, 2005, int(rng.integers(1, 9)))
                   for i in range(3) for j in range(3) if rng.random() < 0.7]
        if not records:
            continue
        h, dangling = normalize_columns(_matrix_from_records(records, n=3))
        sums = np.bincount(h.col, weights=h.value, minlength=3)
        for j in range(3):
            expected = 0.0 if j in dangling else 1.0
            assert sums[j] == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------

def test_power_iterate_single_journal_converges_immediately():
    z = build_citation_matrix(citation_ledger(()), make_table([3]), 2006, 5, True)
    h, dangling = normalize_columns(z)
    pi, report = power_iterate(h, dangling, np.array([1.0]))
    assert pi.tolist() == [1.0]
    assert report.iterations == 1
    assert report.dangling_count == 1


def test_power_iterate_symmetric_pair():
    z = _matrix_from_records([("J00", "J01", 2006, 2005, 5),
                              ("J01", "J00", 2006, 2005, 5)], n=2)
    h, dangling = normalize_columns(z)
    pi, _ = power_iterate(h, dangling, np.array([0.5, 0.5]))
    assert np.allclose(pi, [0.5, 0.5], atol=1e-12)


def _three_journal_setup():
    records = [("J00", "J01", 2006, 2005, 6),
               ("J00", "J02", 2006, 2004, 2),
               ("J01", "J02", 2006, 2003, 7),
               ("J02", "J00", 2006, 2005, 1)]
    table = make_table([12, 5, 9])
    ledger = citation_ledger(records)
    return table, ledger


def test_power_iterate_matches_dense_solution():
    table, ledger = _three_journal_setup()
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
    h, dangling = normalize_columns(z)
    a = article_vector(table, 2006, 5)
    pi, report = power_iterate(h, dangling, a, alpha=0.85)
    expected_pi, _, _ = dense_reference_scores(table, ledger, 2006)
    assert np.max(np.abs(pi - expected_pi)) < 1e-9
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert report.final_residual <= report.tolerance


def test_power_iterate_reports_convergence_failure():
    table, ledger = _three_journal_setup()
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
    h, dangling = normalize_columns(z)
    a = article_vector(table, 2006, 5)
    with pytest.raises(ConvergenceError) as info:
        power_iterate(h, dangling, a, max_iter=2)
    assert info.value.residual > 0


def test_power_iterate_rejects_a_nan_or_infinite_tolerance():
    # NaN passes a `tol <= 0` check and never converges; infinity stops after one step
    z = _matrix_from_records([("J00", "J01", 2006, 2005, 1)], n=2)
    h, dangling = normalize_columns(z)
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol}$"):
            power_iterate(h, dangling, np.array([0.5, 0.5]), tol=tol)


def test_power_iterate_validates_inputs():
    z = _matrix_from_records([("J00", "J01", 2006, 2005, 1)], n=2)
    h, dangling = normalize_columns(z)
    with pytest.raises(ValueError, match="alpha"):
        power_iterate(h, dangling, np.array([0.5, 0.5]), alpha=1.0)
    with pytest.raises(ValueError, match="sum"):
        power_iterate(h, dangling, np.array([0.5, 0.4]))
    for max_iter in (0, -3):
        with pytest.raises(ValueError, match=f"^max_iter must be at least 1, got {max_iter}$"):
            power_iterate(h, dangling, np.array([0.5, 0.5]), max_iter=max_iter)
    for a in ([1.0], [0.25, 0.25, 0.5]):
        with pytest.raises(ValueError, match="does not match 2 journals"):
            power_iterate(h, dangling, np.array(a))


def test_residual_log_is_monotone_after_first_iteration():
    rng = np.random.default_rng(11)
    for _ in range(20):
        table, ledger = random_corpus(rng)
        z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
        h, dangling = normalize_columns(z)
        a = article_vector(table, 2006, 5)
        _, report = power_iterate(h, dangling, a)
        residuals = np.array(report.residuals)
        assert (np.diff(residuals[1:]) <= 1e-15).all()


# ---------------------------------------------------------------------------
# eigenfactor / article influence
# ---------------------------------------------------------------------------

def _scores_for(table, ledger, census_year=2006):
    scores, _ = compute_metrics(table, ledger, census_year)
    return scores


def test_symmetric_corpus_splits_ef_evenly():
    table = make_table([7, 7])
    ledger = citation_ledger((("J00", "J01", 2006, 2005, 5),
                              ("J01", "J00", 2006, 2005, 5)))
    scores = _scores_for(table, ledger)
    assert np.allclose(scores.ef, [50.0, 50.0], atol=1e-9)
    assert np.allclose(scores.ai, [1.0, 1.0], atol=1e-9)


def test_uncited_journal_gets_zero_ef_and_zero_ai():
    table = make_table([7, 7, 7])
    ledger = citation_ledger((("J00", "J01", 2006, 2005, 5),
                              ("J01", "J00", 2006, 2005, 5)))
    scores = _scores_for(table, ledger)
    assert scores.ef[2] == 0.0
    assert scores.ai[2] == 0.0  # defined (articles exist), zero like its EF


def test_eigenfactor_on_empty_network_is_degenerate():
    table = make_table([3, 3])
    only_self = citation_ledger((("J00", "J00", 2006, 2005, 5),))
    with pytest.raises(DegenerateDataError):
        compute_metrics(table, only_self, 2006)


def test_eigenfactor_matches_dense_oracle_on_three_journals():
    table, ledger = _three_journal_setup()
    scores = _scores_for(table, ledger)
    _, ef, ai = dense_reference_scores(table, ledger, 2006)
    assert np.max(np.abs(scores.ef - ef)) < 1e-9
    assert np.max(np.abs(scores.ai - ai)) < 1e-9


def test_article_influence_halves_when_article_share_doubles():
    # definitional: AI divides EF by the article share, so doubling one
    # journal's share halves its AI and leaves everyone else untouched
    ef = np.array([55.0, 30.0, 15.0])
    a = np.array([0.2, 0.5, 0.3])
    doubled = a.copy()
    doubled[0] *= 2
    base = article_influence(ef, a)
    after = article_influence(ef, doubled)
    assert after[0] == pytest.approx(base[0] / 2, rel=1e-12)
    assert np.array_equal(after[1:], base[1:])
    assert np.array_equal(np.argsort(after), np.argsort(base))


def test_article_influence_halves_through_the_pipeline_for_a_small_journal():
    # same citations, one (article-wise negligible) journal doubles its output:
    # the whole pipeline reproduces the halving up to the teleport shift
    table = make_table([2, 500, 400])
    ledger = citation_ledger((("J00", "J01", 2006, 2005, 6),
                              ("J01", "J02", 2006, 2005, 4),
                              ("J02", "J00", 2006, 2005, 5)))
    base = _scores_for(table, ledger)
    doubled = _scores_for(make_table([4, 500, 400]), ledger)
    assert doubled.ai[0] / base.ai[0] == pytest.approx(0.5, abs=0.02)
    assert np.array_equal(np.argsort(base.ai[1:]), np.argsort(doubled.ai[1:]))


def test_article_influence_flags_inconsistent_corpus():
    with pytest.raises(InconsistencyError, match=r"^1 journal\(s\) .* in the window: 0$"):
        article_influence(np.array([60.0, 40.0]), np.array([0.0, 1.0]))  # named by position


def test_article_influence_undefined_when_no_articles_and_no_ef():
    ai = article_influence(np.array([0.0, 100.0]), np.array([0.0, 1.0]))
    assert np.isnan(ai[0]) and ai[1] == pytest.approx(1.0)


def test_article_weighted_mean_ai_is_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        table, ledger = random_corpus(rng)
        scores = _scores_for(table, ledger)
        a = article_vector(table, 2006, 5)
        defined = ~np.isnan(scores.ai)
        assert float(a[defined] @ scores.ai[defined]) == pytest.approx(1.0, abs=1e-9)
        assert scores.ef.sum() == pytest.approx(100.0, abs=1e-9)


def test_scale_invariance_of_ef_and_ai():
    table, ledger = _three_journal_setup()
    base = _scores_for(table, ledger)
    tripled = CitationLedger(ledger.ids, ledger.citing, ledger.cited, ledger.citing_year,
                             ledger.cited_year, ledger.count * 3)
    scaled = _scores_for(table, tripled)
    assert np.max(np.abs(base.ef - scaled.ef)) < 1e-9
    assert np.max(np.abs(base.ai - scaled.ai)) < 1e-9


def test_power_iteration_agrees_with_dense_solve_on_random_corpora():
    rng = np.random.default_rng(101)
    for _ in range(40):
        table, ledger = random_corpus(rng)
        scores = _scores_for(table, ledger)
        _, ef, ai = dense_reference_scores(table, ledger, 2006)
        assert np.max(np.abs(scores.ef - ef)) < 1e-9
        defined = ~np.isnan(ai)
        assert np.max(np.abs(scores.ai[defined] - ai[defined])) < 1e-9


# ---------------------------------------------------------------------------
# impact factor / total citations
# ---------------------------------------------------------------------------

def _if_tc_fixture():
    text = ("journal_id,name,fields,year,articles\n"
            "A,Alpha,,2004,4\nA,Alpha,,2005,6\nA,Alpha,,2002,9\n"
            "B,Beta,,2005,3\n"
            "C,Gamma,,2001,2\n")
    table = parse_journal_metadata(text)
    ledger = parse_citation_edges(
        "citing_id,cited_id,citing_year,cited_year,count\n"
        "B,A,2006,2005,20\nC,A,2006,2004,5\nB,A,2006,2002,9\n"
        "A,B,2006,2005,2\nA,A,2006,2005,3\nB,A,2005,2004,7\n")
    return table, ledger


def test_impact_factor_direct_ratio():
    table, ledger = _if_tc_fixture()
    iff = impact_factor(ledger, table, 2006)
    # A: cites to 2004/2005 articles in 2006 = 20 + 5 + 3(self) = 28; n2 = 10
    assert iff[0] == pytest.approx(2.8)
    # B: 2 cites, 3 two-year articles
    assert iff[1] == pytest.approx(2.0 / 3.0)
    # C published nothing in 2004/2005: undefined
    assert np.isnan(iff[2])
    no_self = impact_factor(ledger, table, 2006, exclude_self=True)
    assert no_self[0] == pytest.approx(2.5)


def test_impact_factor_zero_citations_is_zero():
    table = parse_journal_metadata(
        "journal_id,name,fields,year,articles\nA,Alpha,,2005,10\n")
    iff = impact_factor(citation_ledger(()), table, 2006)
    assert iff[0] == 0.0


def test_total_citations_counts_census_year_only():
    table, ledger = _if_tc_fixture()
    tc = total_citations(ledger, table, 2006)
    assert tc.tolist() == [37, 2, 0]  # A: 20+5+9+3(self); the 2005 record is ignored
    assert total_citations(ledger, table, 2006, exclude_self=True).tolist() == [34, 2, 0]


def _noisy_corpus(rng, census_year=2006):
    """random_corpus plus a journal with no two-year articles, and rows that are
    future-dated, from other citing years, current-year and self-citations."""
    table, ledger = random_corpus(rng, census_year=census_year)
    n = len(table)  # JOLD: a journal whose only articles predate the two-year window
    table = JournalTable(table.ids + ("JOLD",), table.names + ("Old Journal",), [()] * (n + 1),
                         np.append(table.journal, n), np.append(table.year, census_year - 5),
                         np.append(table.articles, 4))
    ids = table.ids
    extra = []
    for _ in range(12):
        citing, cited = (ids[k] for k in rng.integers(0, len(ids), size=2))
        citing_year = census_year + int(rng.integers(-2, 2))
        cited_year = citing_year + int(rng.integers(-7, 3))
        extra.append((citing, cited, citing_year, cited_year, int(rng.integers(1, 9))))
    extra += [("JOLD", "JOLD", census_year, census_year - 5, 2),
              (ids[0], "JOLD", census_year, census_year - 4, 3),
              (ids[0], ids[0], census_year, census_year + 1, 6)]
    return table, citation_ledger(ledger_rows(ledger) + extra)


@pytest.mark.parametrize("exclude_self", [False, True])
def test_aggregations_equal_per_record_oracle(exclude_self):
    rng = np.random.default_rng(11)
    for _ in range(25):
        table, ledger = _noisy_corpus(rng)
        assert (ledger.cited_year > ledger.citing_year).any()
        matrix, iff, tc = reference_counts(ledger, table, 2006, 5, exclude_self)
        z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=exclude_self)
        assert (z.row.tolist(), z.col.tolist(), z.value.tolist()) == matrix
        np.testing.assert_array_equal(
            impact_factor(ledger, table, 2006, exclude_self=exclude_self), iff)
        np.testing.assert_array_equal(
            total_citations(ledger, table, 2006, exclude_self=exclude_self), tc)
        assert np.isnan(iff[-1])


def test_matrix_entries_add_up_in_ledger_order():
    # 2**53 + 1 rounds back to 2**53 in float64, so an entry's sum shows the
    # order of its counts: 2**53, 1, 1 gives 2**53 and 1, 1, 2**53 gives 2**53 + 2.
    # Each of the twelve pairs among J00-J03 has three rows a thousand filler
    # rows apart, so a sort that does not keep equal keys in row order moves some.
    rng = np.random.default_rng(53)
    table = make_table([5] * 20)
    filler = [(f"J{a:02d}", f"J{b:02d}", 2006, 2005, 1)
              for a, b in rng.integers(4, 20, (3000, 2)).tolist()]
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    counts = [(2**53, 1, 1) if k % 2 == 0 else (1, 1, 2**53) for k in range(len(pairs))]
    records = [record for k in range(3) for record in filler[1000 * k:1000 * (k + 1)] + [
        (f"J{a:02d}", f"J{b:02d}", 2006, 2004, count[k]) for (a, b), count in zip(pairs, counts)]]
    ledger = citation_ledger(records)
    z = build_citation_matrix(ledger, table, 2006, 5, exclude_self=True)
    entries = dict(zip(zip(z.row.tolist(), z.col.tolist()), z.value.tolist()))
    # J00 cites J01 with 2**53, 1, 1 and J02 with 1, 1, 2**53
    assert entries[1, 0] == 9007199254740992.0 and entries[2, 0] == 9007199254740994.0
    assert [entries[b, a] for a, b in pairs] == [2.0**53 + 2 * (k % 2) for k in range(12)]
    # the same ledger in a census year it has no rows for, and a one-row ledger
    for ledger, census_year, size in ((ledger, 2006, None), (ledger, 2007, 0),
                                      (citation_ledger(records[1000:1001]), 2006, 1)):
        z = build_citation_matrix(ledger, table, census_year, 5, exclude_self=True)
        matrix, _, _ = reference_counts(ledger, table, census_year, 5, exclude_self=True)
        assert (z.row.tolist(), z.col.tolist(), z.value.tolist()) == matrix
        assert size is None or len(z.value) == size


@pytest.mark.parametrize("block", [3, 7])
def test_block_wise_passes_equal_per_record_oracle_across_block_edges(monkeypatch, block):
    # The matrix build, IF and TC gather, sort and add the rows a block at a
    # time.  With blocks of 3 or 7 rows, the ledger's first block holds no
    # in-window row, and the (J01, J02) rows 2**53, 1, 1 sort to places
    # block - 1, block and block + 1, across a block edge, with the (J01, J03)
    # rows 1, 1, 2**53 after them: the entries read 2**53 and 2**53 + 2 only
    # when each one's counts are added in ledger order, as in
    # test_matrix_entries_add_up_in_ledger_order.
    monkeypatch.setattr(_util, "_BLOCK", block)
    table = make_table([5] * 6)
    noise = ("J04", "J05", 2005, 2004, 1)  # another citing year
    filler = [("J00", "J03", 2006, 2005, 1)] * (block - 1)  # sorts ahead of the pins
    pins = [("J01", "J02", 2006, 2005, count) for count in (2**53, 1, 1)]
    pins += [("J01", "J03", 2006, 2004, count) for count in (1, 1, 2**53)]
    pinned = citation_ledger([noise] * block + filler + [r for pin in pins for r in (pin, noise)])
    z = build_citation_matrix(pinned, table, 2006, 5, exclude_self=True)
    entries = dict(zip(zip(z.row.tolist(), z.col.tolist()), z.value.tolist()))
    assert entries == {(3, 0): block - 1.0, (2, 1): 2.0**53, (3, 1): 2.0**53 + 2}
    # the pinned ledger, in a census year it has no rows for, an empty
    # ledger and generated ones, each a block or more long
    rng = np.random.default_rng(block)
    cases = [(table, pinned, 2006), (table, pinned, 2007), (table, citation_ledger(()), 2006)]
    cases += [(*_noisy_corpus(rng), 2006) for _ in range(10)]
    for table, ledger, census_year in cases:
        for exclude_self in (False, True):
            matrix, iff, tc = reference_counts(ledger, table, census_year, 5, exclude_self)
            z = build_citation_matrix(ledger, table, census_year, 5, exclude_self=exclude_self)
            assert (z.row.tolist(), z.col.tolist(), z.value.tolist()) == matrix
            np.testing.assert_array_equal(
                impact_factor(ledger, table, census_year, exclude_self=exclude_self), iff)
            np.testing.assert_array_equal(
                total_citations(ledger, table, census_year, exclude_self=exclude_self), tc)


def test_matrix_build_refuses_keys_past_64_bits(monkeypatch):
    # The build sorts the keys (col * n + row) * m + rank, each below
    # n * n * m for m in-window rows, so n * n * m >= 2**63 is refused before
    # any key is formed.  No corpus a test can hold reaches that: here
    # windowed hands over 2**61 rows of one broadcast zero.
    rows = np.broadcast_to(np.int8(0), (2**61,))
    monkeypatch.setattr(CitationLedger, "windowed", lambda *args: (rows, rows, rows))
    with pytest.raises(ValidationError, match=f"^2 journals and {2**61} in-window records "):
        build_citation_matrix(citation_ledger(()), make_table([5, 5]), 2006, 5, True)


def test_compute_metrics_peak_memory_per_ledger_row():
    # Every stage holds narrow columns of the in-window rows: the matrix
    # build gathers int16 positions and int8 counts, sorts one int64 key a
    # row in place, and stores int16 row and col; IF, TC and the matrix
    # products add a block of rows at a time.  About 14 bytes a ledger row at
    # this corpus's peak.  An argsort and its inverse beside the keys took
    # 18.7 bytes a row, and np.unique over three gathered columns 33; the
    # bound is 18.
    table, text = _seeded_paper_like_corpus()
    ledger = parse_citation_edges(text)
    del text
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        compute_metrics(table, ledger, 2006)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / len(ledger) < 18


def test_citations_parse_peak_memory_per_row(tmp_path):
    # An open file is read a chunk at a time, never whole, and each chunk's
    # columns are kept in the narrowest signed type that holds them (int16
    # codes and years, int8 counts here): about 45 bytes a row at the
    # parse's peak.  The whole text and five int64 columns took about 105;
    # the bound is 60.
    _, text = _seeded_paper_like_corpus()
    path = tmp_path / "citations.csv"
    path.write_text(text, encoding="utf-8")
    rows = text.count("\n") - 1
    del text
    tracing = tracemalloc.is_tracing()
    with open(path, encoding="utf-8-sig", newline="") as fh:
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            ledger = parse_citation_edges(fh)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
    assert len(ledger) == rows
    assert peak / rows < 60


_PARSE_RSS_PROBE = """
import re, sys
from eigenrank import parse_citation_edges
def peak():  # this process's peak resident size, in bytes
    with open("/proc/self/status") as fh:
        return 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
with open(sys.argv[1], encoding="utf-8", newline="") as fh:
    before = peak()
    ledger = parse_citation_edges(fh)
    grown = peak() - before
print(grown, sum(getattr(ledger, name).nbytes
                 for name in ("citing", "cited", "citing_year", "cited_year", "count")))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_citations_parse_resident_growth_per_ledger_byte(tmp_path):
    # tracemalloc sees only live blocks, not the freed heap that stays
    # resident, so a child reads its own peak resident size (VmHWM: its
    # ru_maxrss would start from this process's size).  Chunk columns
    # written straight into arrays sized from the file grow it by about 1.3
    # times the ledger (3 * 10^6 rows, 9 bytes a row); per-chunk blocks
    # joined at the end held the ledger twice and grew it by about 2.3
    # times.  The bound is 1.6 times and 4 MiB.
    _, text = _seeded_paper_like_corpus()
    header, body = text.split("\n", 1)
    path = tmp_path / "citations.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for _ in range(30):
            fh.write(body)
    del text, body
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", _PARSE_RSS_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    grown, ledger = map(int, done.stdout.split())
    assert ledger == 30 * 100_000 * 9
    assert grown < 1.6 * ledger + 4 * 2**20, (grown / 2**20, ledger / 2**20)


def test_aggregations_list_every_unknown_id():
    table = make_table([3, 4])
    ledger = citation_ledger((("J00", "Y", 2006, 2005, 1),
                              ("X", "J01", 2001, 2000, 1)))
    for aggregate in (impact_factor, total_citations):
        with pytest.raises(ValidationError, match="unknown journal ids in ledger: 'X', 'Y'$"):
            aggregate(ledger, table, 2006)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decomposition_scale_is_constant():
    rng = np.random.default_rng(17)
    for _ in range(20):
        table, ledger = random_corpus(rng)
        report = decomposition_check(_scores_for(table, ledger))
        assert report.scale_spread <= 1e-9


def test_decomposition_scale_value_is_100_over_total_articles():
    table = make_table([400, 350, 250])  # total articles in window = 1000
    ledger = citation_ledger((("J00", "J01", 2006, 2005, 5),
                              ("J01", "J02", 2006, 2005, 4),
                              ("J02", "J00", 2006, 2005, 3)))
    report = decomposition_check(_scores_for(table, ledger))
    defined = ~np.isnan(report.scale)
    assert np.allclose(report.scale[defined], 0.1, atol=1e-12)


def test_decomposition_citation_side_is_only_approximate():
    table, ledger = _if_tc_fixture()
    scores = _scores_for(table, ledger)
    report = decomposition_check(scores)
    # log(TC) - log(IF * n5) differs between A and B: hand computation
    expected_a = np.log(37.0) - np.log(2.8 * 19.0)
    expected_b = np.log(2.0) - np.log((2.0 / 3.0) * 3.0)
    assert report.citation_log_residual[0] == pytest.approx(expected_a)
    assert report.citation_log_residual[1] == pytest.approx(expected_b)
    assert report.citation_log_residual_spread > 0.1


def test_decomposition_requires_an_eligible_journal():
    scores = MetricScores(2006, ("A", "B"), [50.0, 50.0], [np.nan, np.nan],
                          [np.nan, np.nan], [0, 0], [0, 0], [0, 0])
    with pytest.raises(DegenerateDataError):
        decomposition_check(scores)


# ---------------------------------------------------------------------------
# MetricScores and scores.csv
# ---------------------------------------------------------------------------

def test_metric_scores_validates_sum():
    with pytest.raises(ValueError, match="sum"):
        MetricScores(2006, ("A", "B"), [60.0, 30.0], [1.0, 1.0], [0.0, 0.0],
                     [0, 0], [1, 1], [1, 1])
    # the AI invariants: (ef, ai, n5) of two journals
    for ef, ai, n5, message in (
            ([100.0, 0.0], [1.0, -0.5], [1, 1], "AI must be nonnegative"),
            ([100.0, 0.0], [1.0, 0.5], [1, 1], "AI must be zero exactly where EF is zero"),
            ([100.0, 0.0], [1.0, 0.0], [1, 0], "AI must be undefined")):
        with pytest.raises(ValueError, match=message):
            MetricScores(2006, ("A", "B"), ef, ai, [0.0, 0.0], [0, 0], n5, [1, 1])


@pytest.mark.parametrize("column", ["ef", "ai", "impact_factor", "total_citations", "n5", "n2"])
def test_metric_scores_rejects_a_column_of_the_wrong_length(column):
    columns = dict(ef=[50.0, 50.0], ai=[1.0, 1.0], impact_factor=[0.0, 0.0],
                   total_citations=[0, 0], n5=[1, 1], n2=[1, 1])
    columns[column] = columns[column][:1]
    with pytest.raises(ValueError) as info:
        MetricScores(None, ("A", "B"), **columns)
    assert str(info.value) == f"{column} has wrong length"


def test_metric_aliases():
    assert resolve_metric("IF") == "impact_factor"
    assert resolve_metric("tc") == "total_citations"
    assert resolve_metric("ef") == "ef"
    with pytest.raises(ValueError):
        resolve_metric("h-index")


def test_scores_csv_round_trip_and_formatting():
    table, ledger = _three_journal_setup()
    scores = _scores_for(table, ledger)
    text = write_scores_csv(scores)
    lines = text.strip().split("\n")
    assert lines[0] == "journal_id,ef,ai,impact_factor,total_citations,n5,n2"
    for cell in lines[1].split(",")[1:4]:
        whole, frac = cell.split(".")
        assert len(frac) == 6  # six decimal places
    reread = read_scores_csv(text)
    assert isinstance(reread, MetricScores) and reread.census_year is None
    assert reread.ef is reread.metric("ef")
    assert reread.journal_ids == scores.journal_ids
    assert np.allclose(reread.metric("ef"), scores.ef, atol=5e-7)
    for name in ("total_citations", "n5", "n2"):
        assert reread.metric(name).dtype == np.int64
        assert np.array_equal(reread.metric(name), scores.metric(name))


def _seeded_paper_like_corpus():
    """About 2,000 journals and 10^5 citation rows, a tenth of the ids ISSN-like
    (two words to the citations reader), drawn with numpy."""
    rng = np.random.default_rng(2006)
    n, rows = 2000, 100_000
    ids = [f"{j:04d}-{j * 7 % 9973:04d}" if j % 10 == 3 else f"J{j:05d}" for j in range(n)]
    articles = rng.integers(1, 300, (n, 7))
    table = journal_table((jid, f"Journal {j}", {f"field-{j % 40:02d}"},
                           dict(zip(range(2000, 2007), articles[j].tolist())))
                          for j, jid in enumerate(ids))
    # heavy-tailed journal sizes, and a mix of in-window, old, other-year and self rows
    weight = rng.lognormal(0.0, 1.2, n)
    citing = rng.choice(n, rows, p=weight / weight.sum())
    cited = np.where(rng.random(rows) < 0.05, citing, rng.choice(n, rows, p=weight / weight.sum()))
    citing_year = rng.choice([2004, 2005, 2006, 2006, 2006, 2006], rows)
    cited_year = citing_year - rng.integers(-1, 9, rows)
    ledger = CitationLedger(ids, citing, cited, citing_year, cited_year, rng.integers(1, 6, rows))
    return table, write_citation_edges(ledger)


def test_seeded_multi_chunk_corpus_scores_golden():
    table, text = _seeded_paper_like_corpus()
    assert len(text) > 4 * _util._CHUNK_CHARS  # several chunks of the citations reader
    scores, _ = compute_metrics(table, parse_citation_edges(text), 2006)
    digest = hashlib.sha256(write_scores_csv(scores).encode()).hexdigest()
    assert digest == "1cebbae6cfcddf2daed8ef846d0b78b5d72c67891eb0a538c19845c1364d9651"


def test_scores_csv_undefined_printed_empty():
    scores = MetricScores(2006, ("A", "B"), [100.0, 0.0], [1.0, np.nan],
                          [2.5, np.nan], [10, 0], [5, 0], [4, 0])
    text = write_scores_csv(scores)
    row_b = text.strip().split("\n")[2].split(",")
    assert row_b[2] == "" and row_b[3] == ""
    reread = read_scores_csv(text)
    assert np.isnan(reread.metric("ai")[1])
    with pytest.raises(CsvFormatError, match="^line 3: malformed ef 'zero'$"):
        read_scores_csv(text.replace("\nB,0.000000,", "\nB,zero,"))
    # an empty count cell is malformed, not undefined
    for cell in ("3.5", "x", ""):
        bad = text.replace("\nB,0.000000,,,0,0,0\n", f"\nB,0.000000,,,0,{cell},0\n")
        with pytest.raises(CsvFormatError, match=f"^line 3: malformed n5 '{cell}'$"):
            read_scores_csv(bad)
    with pytest.raises(CsvFormatError, match="^line 3: n5 9223372036854775808 out of range"):
        read_scores_csv(text.replace(",0,0,0\n", ",0,9223372036854775808,0\n"))
    # a count is never negative
    for i, name in enumerate(("total_citations", "n5", "n2")):
        cells = ["0", "0", "0"]
        cells[i] = "-5"
        bad = text.replace("\nB,0.000000,,,0,0,0\n", "\nB,0.000000,,," + ",".join(cells) + "\n")
        with pytest.raises(CsvFormatError, match=f"^line 3: {name} must be >= 0, got -5$"):
            read_scores_csv(bad)
    # the column count and header messages match the other readers
    with pytest.raises(CsvFormatError, match="^line 3: expected 7 columns, got 6$"):
        read_scores_csv(text.replace("\nB,0.000000,,,0,0,0\n", "\nB,0.000000,,,0,0\n"))
    with pytest.raises(CsvFormatError, match="^line 1: expected header journal_id,ef,ai,"
                                             "impact_factor,total_citations,n5,n2, got id,ef$"):
        read_scores_csv("id,ef\nA,1\n")
    with pytest.raises(CsvFormatError, match="^line 1: missing header row$"):
        read_scores_csv("")


# ---------------------------------------------------------------------------
# the scores.csv reader against a plain reference row loop
# ---------------------------------------------------------------------------

_SCORES_LINE = ",".join(SCORES_HEADER) + "\n"
# decimals the kernel reads, and ones it must leave to the row loop: signs,
# exponents, mantissas of 16-17 digits around 2**53, points, odd characters,
# the widest whole parts it reads and 10 and 11 digits that m / 10**6 misreads
_ODD_DECIMALS = ("-0.000000", "0.000000", "", "1e-3", "1E5", "+1", "-", ".", "-.", "5.", ".5",
                 "-.5", "1.2.3", "00012.50", "1234567890123456", "9" * 19, "9007199254740992",
                 "9007199254740993", "12345678901234567", "0.1234567890123456",
                 "0.12345678901234567", "-123456789.0123456", "nan", "inf", "1_0", "\u0661",
                 " 2.5", "2.5 ", '"2.5"', "2.5\t", "999999999.999999", "-999999999.999999",
                 "9007199254.740993", "52218896736.499748", "12345678")
_ODD_COUNTS = ("0", "0007", "-1", "+2", "", "1.0", "9" * 18, "9" * 19, " 3", '"4"')


@st.composite
def _score_texts(draw):
    """scores.csv texts of plain rows, some cells odd, some ids repeated."""
    ids = [f"J{k:03d}" for k in range(draw(st.integers(0, 8)))]
    if ids and draw(st.booleans()):
        ids[draw(st.integers(0, len(ids) - 1))] = draw(st.sampled_from(
            ids + ["0028-0836", "A" * 20, "\u00e9", '"A,1"', " B", '"A\nB"']))
    decimal = st.one_of(st.floats(-1e6, 1e6).map("{:.6f}".format),
                        st.sampled_from(_ODD_DECIMALS))
    count = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(_ODD_COUNTS))
    rows = [[jid, *(draw(decimal) for _ in range(3)), *(draw(count) for _ in range(3))]
            for jid in ids]
    end = draw(st.sampled_from(("\n", "\n", "\r\n")))
    header, body = _SCORES_LINE.replace("\n", end), "".join(",".join(r) + end for r in rows)
    text = header + body
    # a header that is not the exact line sends the first chunk to the row loop, the rest
    # to the kernel
    return draw(st.sampled_from((text, text, text.rstrip("\r\n"), "\ufeff" + text,
                                 header.replace(",", " , ") + body)))


def _scores_outcome(parse, source):
    """The ids and column bytes ``parse`` gives (-0.0 and 0.0 differ), or the
    type and message of what it raises."""
    try:
        scores = parse(source)
    except Exception as exc:  # the same failure is part of the contract
        return type(exc), str(exc)
    return scores.journal_ids, [getattr(scores, name).tobytes() for name in SCORES_HEADER[1:]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=_score_texts(), chunk=st.sampled_from((1, 7, 30, _util._CHUNK_CHARS)))
@example(text=_SCORES_LINE + "A,-0.000000,,0.5,0,0,0\nB,1234567890123456,.5,5.,1,2,3\n",
         chunk=_util._CHUNK_CHARS)
@example(text=_SCORES_LINE + "A,1,1,1,0,0,0\nB,1,1,1,0,0,0\nA,1,1,1,0,0,0\n",
         chunk=7)  # a repeated id, chunks apart
@example(text=_SCORES_LINE + "A,0.12345678901234567,1,1,0,0,0\nB,9007199254740993,1,1,0,0,0\n"
         + "Z" * 33 + ",1,1,1,0,0,0\n", chunk=7)  # 19 characters, 2**53 + 1, a 33-byte id
@example(text=_SCORES_LINE + "A,1,1,1,0,0,0\nB,.,1,1,0,0,0\n", chunk=20)  # a point, no digit
@example(text=_SCORES_LINE + "A,1,1,1,0,0,0\nB,-.,1,1,0,0,0\n", chunk=20)
@example(text=_SCORES_LINE + "A,1,1,1,0,0,0\nB," + "9" * 19 + ",1,1,0,0,0\n",
         chunk=20)  # 19 digits, past int64
# count cells at any length: leading zeros, and past int64 where int() refuses the text
@example(text=_SCORES_LINE + "A,1,1,1,0,0,0\nB,1,1,1," + "0" * 5000 + "7,0,0\n", chunk=20)
@example(text=_SCORES_LINE + "A,1,1,1,0,0,0\nB,1,1,1,0," + "9" * 5000 + ",0\n", chunk=20)
@example(text=_SCORES_LINE + "A,1,1,1,0,0,0\nB,1,1,1,0,0,-" + "9" * 4301 + "\n", chunk=20)
# the six-place decoder's edges, a row a chunk: the widest whole parts it reads; 2**53 + 1
# and an 11-digit whole part, which m / 10**6 misreads; other points and places; a point
# that is a digit; a chunk whose ef column is all empty
@example(text=_SCORES_LINE + "".join(f"J{k},{cell},,1.000000,0,0,0\n" for k, cell in enumerate((
    "999999999.999999", "-999999999.999999", "9007199254.740993", "52218896736.499748",
    "-0.000000", ".000000", "-.000000", "1.00000", "1.0000000", "0001.000000", "12345678",
    ""))), chunk=7)
# six-place cells, so the kernel codes a chunk's ids before it finds the repeat: within
# one chunk, after a new id; and in a chunk of two rows, a new id and one of the chunk before
@example(text=_SCORES_LINE + "".join(f"{jid},1.000000,1.000000,1.000000,0,0,0\n"
                                     for jid in "ABA"), chunk=_util._CHUNK_CHARS)
@example(text=_SCORES_LINE + "".join(f"{jid},1.000000,1.000000,1.000000,0,0,0\n"
                                     for jid in "ABCA"), chunk=40)
@example(text=_SCORES_LINE + 'A,1,1,1,0,0,0\n"B\nC",1,1,1,x,0,0\n',
         chunk=_util._CHUNK_CHARS)  # a fault named at its row's first line, 3
def test_scores_reader_equals_reference_row_loop(text, chunk):
    with patch.object(_util, "_CHUNK_CHARS", chunk):
        assert _scores_outcome(read_scores_csv, text) == _scores_outcome(reference_scores, text)
        assert (_scores_outcome(read_scores_csv, io.StringIO(text, newline=""))
                == _scores_outcome(reference_scores, io.StringIO(text, newline="")))


def test_plain_scores_skip_the_row_loop(monkeypatch):
    rows = _ScoreRows.rows

    def no_row(self, rdr):  # a chunk the kernel declines
        columns = rows(self, rdr)
        assert not len(columns[0]), "the csv row loop read a plain row"
        return columns
    monkeypatch.setattr(_ScoreRows, "rows", no_row)
    rng = np.random.default_rng(7)
    n = 7611
    # negative cells, -0.000000 and 9-digit whole parts: the writer's whole range
    impact = rng.lognormal(0, 1, n) * rng.choice((-1.0, 1.0), n)
    impact[::50] = -0.0
    impact[1::50] = rng.uniform(1 - 1e9, 1e9 - 1, len(impact[1::50]))
    scores = MetricScores(None, tuple(f"J{j:05d}" for j in range(n)),
                          rng.lognormal(-6, 2, n), np.where(
                              rng.random(n) < 0.01, np.nan, rng.lognormal(0, 1, n)),
                          impact, rng.integers(0, 10**5, n),
                          rng.integers(0, 10**3, n), rng.integers(0, 400, n))
    text = write_scores_csv(scores)
    assert ",-0.000000," in text
    assert len(text) > _util._CHUNK_CHARS
    assert _scores_outcome(read_scores_csv, text) == _scores_outcome(reference_scores, text)
    head = "".join(text.splitlines(keepends=True)[:30])  # a file of one chunk
    assert _scores_outcome(read_scores_csv, head) == _scores_outcome(reference_scores, head)
