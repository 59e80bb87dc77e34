"""Property tests of the metric invariants over generated corpora, and of
``scores.csv`` depending only on the in-window counts.

A generated corpus has 1-7 journals.  Article counts may be zero and fall
inside, before or after the citation window; citation rows mix other citing
years, future-dated and pre-window cited years, and self-citations.  So
single-journal, all-dangling, disconnected and zero-article corpora occur.
"""

import io
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenrank import (DegenerateDataError, InconsistencyError, MetricScores, _util,
                       compute_metrics, parse_citation_edges, parse_journal_metadata,
                       write_citation_edges, write_journal_metadata, write_scores_csv)
from helpers import citation_ledger, dense_reference_scores, journal_table

CENSUS, WINDOW = 2006, 5  # the window is 2001..2005
SCORE_NAMES = ("ef", "ai", "impact_factor", "total_citations", "n5", "n2")


@st.composite
def corpora(draw):
    ids = [f"J{k}" for k in range(draw(st.integers(1, 7)))]
    article_years = st.dictionaries(st.integers(CENSUS - WINDOW - 2, CENSUS + 1),
                                    st.integers(0, 30), max_size=4)
    journals = [(jid, jid, (), draw(article_years)) for jid in ids]
    journal = st.sampled_from(ids)
    records = draw(st.lists(st.tuples(
        journal, journal,
        st.sampled_from((CENSUS, CENSUS, CENSUS, CENSUS - 1, CENSUS + 1)),
        st.integers(CENSUS - WINDOW - 2, CENSUS + 2),
        st.integers(1, 50)), max_size=25))
    return journals, records


def _outcome(journals, records, exclude_self):
    """The scores of a corpus, or the class of the error the corpus raises."""
    try:
        return compute_metrics(journal_table(journals), citation_ledger(records), CENSUS,
                               window=WINDOW,
                               exclude_self_influence=exclude_self)[0]
    except (DegenerateDataError, InconsistencyError) as exc:
        return type(exc)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(corpora(), st.data())
def test_metric_invariants_hold_on_generated_corpora(corpus, data):
    journals, records = corpus
    order = data.draw(st.permutations(range(len(journals))))
    k = data.draw(st.integers(2, 1000))
    shuffled = [journals[i] for i in order]
    scaled_journals = [(jid, name, fields, {y: k * c for y, c in years.items()})
                       for jid, name, fields, years in journals]
    scaled_records = [(*record[:4], k * record[4]) for record in records]
    for exclude_self in (False, True):
        scores = _outcome(journals, records, exclude_self)
        moved = _outcome(shuffled, records, exclude_self)
        scaled = _outcome(scaled_journals, scaled_records, exclude_self)
        if not isinstance(scores, MetricScores):
            assert moved is scores and scaled is scores
            continue
        ef, ai, n5 = scores.ef, scores.ai, scores.n5
        published = n5 > 0
        assert ef.sum() == pytest.approx(100.0, abs=1e-9)
        assert (ai[published] * n5[published]).sum() / n5.sum() == pytest.approx(1.0, rel=1e-9)
        np.testing.assert_allclose(ef[published], 100.0 / n5.sum() * ai[published] * n5[published],
                                   rtol=1e-9, atol=1e-12)
        with np.errstate(invalid="ignore"):  # the oracle divides by zero article shares
            _, ref_ef, ref_ai = dense_reference_scores(
                journal_table(journals), citation_ledger(records), CENSUS, WINDOW,
                exclude_self=exclude_self)
        np.testing.assert_allclose(ef, ref_ef, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(ai, ref_ai, rtol=1e-7, atol=1e-8)
        for name in SCORE_NAMES:
            np.testing.assert_allclose(moved.metric(name), scores.metric(name)[list(order)],
                                       rtol=1e-9, atol=1e-9, err_msg=name)
        np.testing.assert_allclose(scaled.ef, ef, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(scaled.ai, ai, rtol=1e-9, atol=1e-9)


def _scores_csv(journals: str, citations: str) -> list:
    """The scores.csv text of a corpus written as files, each read as the
    CLI reads it (UTF-8 with an optional byte-order mark, ``newline=""``),
    or the class of the error the corpus raises, without and then with
    self-citations excluded from the influence network."""
    table, ledger = (parse(io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8-sig",
                                            newline=""))
                     for parse, text in ((parse_journal_metadata, journals),
                                         (parse_citation_edges, citations)))
    outcomes = []
    for exclude_self in (False, True):
        try:
            outcomes.append(write_scores_csv(compute_metrics(
                table, ledger, CENSUS, window=WINDOW, exclude_self_influence=exclude_self)[0]))
        except (DegenerateDataError, InconsistencyError) as exc:
            outcomes.append(type(exc))
    return outcomes


def _text(header: str, rows, sep: str = ",", end: str = "\n") -> str:
    return end.join([header, *(sep.join(map(str, row)) for row in rows)]) + end


@settings(max_examples=60, derandomize=True, deadline=None)
@given(corpora(), st.data())
def test_scores_csv_bytes_depend_only_on_the_in_window_counts(corpus, data):
    journals, records = corpus
    # journals.csv holds a journal only on its year rows: a year after the census counts nowhere
    journals = [(jid, name, fields, years or {CENSUS + 1: 0})
                for jid, name, fields, years in journals]
    journals_text = write_journal_metadata(journal_table(journals))
    citations_text = write_citation_edges(citation_ledger(records))
    j_header, *j_lines = journals_text.splitlines()
    c_header, *c_lines = citations_text.splitlines()
    j_rows, rows = ([line.split(",") for line in lines] for lines in (j_lines, c_lines))
    split = []  # each count of 2 or more in two rows
    for row in rows:
        count = int(row[4])
        if count < 2:
            split.append(row)
        else:
            k = data.draw(st.integers(1, count - 1))
            split += [(*row[:4], k), (*row[:4], count - k)]
    ids = [jid for jid, *_ in journals]
    other_years = data.draw(st.lists(st.tuples(
        st.sampled_from(ids), st.sampled_from(ids), st.sampled_from((CENSUS - 1, CENSUS + 1)),
        st.integers(CENSUS - WINDOW - 2, CENSUS + 2), st.integers(1, 50)), max_size=5))
    shuffled = data.draw(st.permutations(rows))
    renamed = {jid: "Q" + jid[::-1] for jid in ids}  # every id, the same way in both files
    variants = {
        "shuffled rows": (journals_text, _text(c_header, shuffled)),
        "counts split into two rows": (journals_text, _text(c_header, split)),
        "rows of other citing years": (journals_text, _text(c_header, rows + other_years)),
        "quoted citing ids": (journals_text, _text(c_header, [[f'"{row[0]}"', *row[1:]]
                                                             for row in rows])),
        "spaces round the commas": (journals_text, _text(c_header, rows, sep=" , ")),
        "CRLF": (_text(j_header, j_rows, end="\r\n"), _text(c_header, rows, end="\r\n")),
        "a byte-order mark": ("\ufeff" + journals_text, "\ufeff" + citations_text),
    }
    renamed_texts = (_text(j_header, [[renamed[row[0]], *row[1:]] for row in j_rows]),
                     _text(c_header, [[renamed[row[0]], renamed[row[1]], *row[2:]]
                                      for row in rows]))
    with patch.object(_util, "_CHUNK_CHARS", data.draw(st.sampled_from((30, 100)))):
        expected = _scores_csv(journals_text, citations_text)
        for relation, texts in variants.items():
            assert _scores_csv(*texts) == expected, relation
        for got, want in zip(_scores_csv(*renamed_texts), expected):
            if isinstance(want, str):  # every column but journal_id, and the ids renamed
                assert ([line.split(",", 1)[1] for line in got.splitlines()]
                        == [line.split(",", 1)[1] for line in want.splitlines()])
                assert [line.split(",", 1)[0] for line in got.splitlines()[1:]] == [
                    renamed[line.split(",", 1)[0]] for line in want.splitlines()[1:]]
            else:
                assert got is want
