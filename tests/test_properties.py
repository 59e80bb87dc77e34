"""Property tests of the metric invariants over generated corpora.

A generated corpus has 1-7 journals.  Article counts may be zero and fall
inside, before or after the citation window; citation rows mix other citing
years, future-dated and pre-window cited years, and self-citations.  So
single-journal, all-dangling, disconnected and zero-article corpora occur.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenrank import (CitationLedger, CitationRecord, DegenerateDataError, InconsistencyError,
                       JournalEntry, JournalTable, MetricScores, compute_metrics)
from helpers import dense_reference_scores

CENSUS, WINDOW = 2006, 5  # the window is 2001..2005
SCORE_NAMES = ("ef", "ai", "impact_factor", "total_citations", "n5", "n2")


@st.composite
def corpora(draw):
    ids = [f"J{k}" for k in range(draw(st.integers(1, 7)))]
    article_years = st.dictionaries(st.integers(CENSUS - WINDOW - 2, CENSUS + 1),
                                    st.integers(0, 30), max_size=4)
    table = JournalTable(tuple(JournalEntry(jid, jid, frozenset(), draw(article_years))
                               for jid in ids))
    journal = st.sampled_from(ids)
    records = draw(st.lists(st.builds(
        CitationRecord, journal, journal,
        st.sampled_from((CENSUS, CENSUS, CENSUS, CENSUS - 1, CENSUS + 1)),
        st.integers(CENSUS - WINDOW - 2, CENSUS + 2),
        st.integers(1, 50)), max_size=25))
    return table, records


def _outcome(table, records, exclude_self):
    """The scores of a corpus, or the class of the error the corpus raises."""
    try:
        return compute_metrics(table, CitationLedger(records), CENSUS, window=WINDOW,
                               exclude_self_influence=exclude_self)[0]
    except (DegenerateDataError, InconsistencyError) as exc:
        return type(exc)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(corpora(), st.data())
def test_metric_invariants_hold_on_generated_corpora(corpus, data):
    table, records = corpus
    order = data.draw(st.permutations(range(len(table))))
    k = data.draw(st.integers(2, 1000))
    shuffled = JournalTable(tuple(table.entries[i] for i in order))
    scaled_table = JournalTable(tuple(
        replace(e, articles_by_year={y: k * c for y, c in e.articles_by_year.items()})
        for e in table))
    scaled_records = [replace(r, count=k * r.count) for r in records]
    for exclude_self in (False, True):
        scores = _outcome(table, records, exclude_self)
        moved = _outcome(shuffled, records, exclude_self)
        scaled = _outcome(scaled_table, scaled_records, exclude_self)
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
            _, ref_ef, ref_ai = dense_reference_scores(table, CitationLedger(records), CENSUS,
                                                       WINDOW, exclude_self=exclude_self)
        np.testing.assert_allclose(ef, ref_ef, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(ai, ref_ai, rtol=1e-7, atol=1e-8)
        for name in SCORE_NAMES:
            np.testing.assert_allclose(moved.metric(name), scores.metric(name)[list(order)],
                                       rtol=1e-9, atol=1e-9, err_msg=name)
        np.testing.assert_allclose(scaled.ef, ef, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(scaled.ai, ai, rtol=1e-9, atol=1e-9)
