"""Property tests of the statistics layer, with scipy as the oracle where it has one.

Samples are small integers (so ties occur and no variance is near zero) or
positive floats spanning six decades.  Each tolerance is stated where it is
used; an exact comparison means the two sides run the same float operations.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import mannwhitneyu, pearsonr

from eigenrank import UndefinedCorrelationError
from eigenrank.stats import (coefficient_of_variation, mann_whitney_u, pearson_r,
                             per_field_correlations, ratio_analysis, tercile_median_ratio)
from helpers import journal_table, score_table

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)
POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def paired(draw):
    n = draw(st.integers(3, 30))
    pair = st.lists(st.integers(-100, 100), min_size=n, max_size=n)
    return np.array(draw(pair), float), np.array(draw(pair), float)


@SETTINGS
@given(paired(), st.floats(0.01, 100), st.floats(-1e3, 1e3),
       st.floats(0.01, 100), st.floats(-1e3, 1e3))
def test_pearson_r_is_symmetric_affine_invariant_and_matches_scipy(xy, a, b, c, d):
    x, y = xy
    assume(np.ptp(x) > 0 and np.ptp(y) > 0)
    rho = pearson_r(x, y)
    assert pearson_r(y, x) == rho  # the same products summed in the same order
    # a positive affine map rounds each value once; 1e-9 is far above that
    assert pearson_r(a * x + b, c * y + d) == pytest.approx(rho, abs=1e-9)
    # two summation orders of at most 30 integer products
    assert rho == pytest.approx(pearsonr(x, y).statistic, abs=1e-12)


@SETTINGS
@given(st.lists(st.integers(0, 6), min_size=1, max_size=20),
       st.lists(st.integers(0, 6), min_size=1, max_size=20))
def test_mann_whitney_u_swap_and_scipy_oracle(a, b):
    assume(len(set(a + b)) > 1)
    result = mann_whitney_u(a, b)
    swapped = mann_whitney_u(b, a)
    # mid-ranks are halves, so U, z and p are exact under the swap
    assert result.U + swapped.U == len(a) * len(b)
    assert swapped.z == -result.z
    assert (swapped.p, swapped.log10_p) == (result.p, result.log10_p)
    oracle = mannwhitneyu(a, b, use_continuity=True, alternative="two-sided",
                          method="asymptotic")
    assert result.U == oracle.statistic
    # erfc against scipy's normal tail at |z| below 6
    assert result.p == pytest.approx(oracle.pvalue, rel=1e-12)


@SETTINGS
@given(st.lists(POSITIVE, min_size=3, max_size=30), POSITIVE)
def test_dispersion_statistics_are_scale_invariant(xs, scale):
    xs = np.array(xs)
    # scaling rounds each value once: the CV moves by a few ulp of its size,
    # or by about 1e-16 where the values are all but equal
    assert coefficient_of_variation(scale * xs) == pytest.approx(
        coefficient_of_variation(xs), rel=1e-9, abs=1e-12)
    assert tercile_median_ratio(scale * xs) == pytest.approx(tercile_median_ratio(xs),
                                                            rel=1e-12)


@SETTINGS
@given(st.lists(st.tuples(POSITIVE, POSITIVE), min_size=1, max_size=30))
def test_ratio_analysis_normalized_keeps_order_and_has_median_one(pairs):
    num, den = np.array(pairs).T
    ra = ratio_analysis(num, den, [f"x{i}" for i in range(len(pairs))])
    raw, normalized = ra.raw_ratios, ra.normalized
    assert (np.diff(raw) <= 0).all()
    # dividing by a positive median never reverses an order, and keeps ties
    assert (np.diff(normalized) <= 0).all()
    assert ((np.diff(raw) == 0) <= (np.diff(normalized) == 0)).all()
    # an odd count divides the median by itself; an even one averages two
    # quotients, each off by half an ulp
    assert np.median(normalized) == pytest.approx(1.0, abs=1e-14)


@st.composite
def field_corpora(draw):
    n = draw(st.integers(3, 20))
    # one value in 27 undefined, and mostly positive, so the log mode keeps most rows
    value = st.sampled_from([math.nan, *range(-5, 21)]).map(float)
    x = draw(st.lists(value, min_size=n, max_size=n))
    y = draw(st.lists(value, min_size=n, max_size=n))
    fields = draw(st.lists(st.sets(st.sampled_from("abc")), min_size=n, max_size=n))
    return x, y, fields, draw(st.permutations(range(n))), draw(st.booleans())


def _field_correlations(ids, x, y, fields, log):
    """The per-field result of journals ``ids``, or the error it raises."""
    scores = score_table(ids, impact_factor=np.array(x), ai=np.array(y))
    table = journal_table((jid, jid, labels, {2005: 1}) for jid, labels in zip(ids, fields))
    try:
        return per_field_correlations(scores, table, "impact_factor", "ai", log=log)
    except UndefinedCorrelationError as exc:
        return type(exc)


@SETTINGS
@given(field_corpora())
def test_per_field_pooled_value_and_journal_order(corpus):
    x, y, fields, order, log = corpus
    ids = [f"J{i}" for i in range(len(x))]
    fc = _field_correlations(ids, x, y, fields, log)
    moved = _field_correlations(*([seq[i] for i in order] for seq in (ids, x, y, fields)), log)
    if isinstance(fc, type):
        assert moved is fc
        return
    xs, ys = np.array(x), np.array(y)
    usable = np.isfinite(xs) & np.isfinite(ys)
    if log:
        usable &= (xs > 0) & (ys > 0)
    xs, ys = xs[usable], ys[usable]
    if log:
        xs, ys = np.log(xs), np.log(ys)
    assert fc.pooled.rho == pearson_r(xs, ys)  # the same rows in the same order
    assert fc.pooled.n == len(xs)
    assert set(moved.skipped) == set(fc.skipped) and moved.by_field.keys() == fc.by_field.keys()
    for field, result in [(None, fc.pooled), *fc.by_field.items()]:
        other = moved.pooled if field is None else moved.by_field[field]
        assert (other.n, other.excluded) == (result.n, result.excluded)
        # the same values summed in another order
        assert other.rho == pytest.approx(result.rho, abs=1e-12)
