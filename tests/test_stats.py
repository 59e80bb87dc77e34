import math

import numpy as np
import pytest
from scipy.special import log_ndtr
from scipy.stats import rankdata

from eigenrank import (CorrelationResult, DegenerateDataError, DomainError, PairedObservations,
                       UndefinedCorrelationError, bigmac_fixture,
                       coefficient_of_variation, log_pearson, mann_whitney_u, pearson,
                       pearson_r, per_field_correlations, ratio_analysis, spearman,
                       tercile_median_ratio)
from eigenrank.stats import (_log_normal_tail, format_utest_report, midranks,
                             write_correlations_csv)
from helpers import exact_mwu_two_sided_p, journal_table, score_table


def obs(x, y, labels=None):
    labels = labels or tuple(f"item{i}" for i in range(len(x)))
    return PairedObservations(tuple(labels), x, y)


# ---------------------------------------------------------------------------
# pearson / spearman / log-pearson
# ---------------------------------------------------------------------------

def test_pearson_bigmac_is_099():
    result = pearson(bigmac_fixture())
    assert result.rho == pytest.approx(0.99, abs=0.005)
    assert result.n == 22 and result.kind == "pearson"


def test_pearson_perfect_lines():
    x = np.arange(1.0, 9.0)
    assert pearson(obs(x, x)).rho == pytest.approx(1.0)
    assert pearson(obs(x, -x)).rho == pytest.approx(-1.0)


def test_pearson_zero_variance_is_undefined():
    with pytest.raises(UndefinedCorrelationError):
        pearson(obs([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    with pytest.raises(UndefinedCorrelationError):
        pearson_r([1.0], [2.0])


def test_pearson_and_spearman_reject_nan_instead_of_clamping_it():
    # min(1, max(-1, nan)) is -1, so unchecked a NaN reads as rho = -1
    with pytest.raises(DomainError):
        pearson_r([1.0, math.nan, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError), np.errstate(invalid="ignore"):
        pearson_r([1.0, 2.0, 3.0], [1.0, math.inf, 3.0])
    with pytest.raises(DomainError):
        spearman(obs([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]))


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=30)
        y = rng.normal(size=30) + 0.5 * x
        base = pearson_r(x, y)
        assert pearson_r(y, x) == pytest.approx(base, abs=1e-9)
        assert pearson_r(3.5 * x + 11.0, y) == pytest.approx(base, abs=1e-9)
        assert pearson_r(x, -2.0 * y + 4.0) == pytest.approx(-base, abs=1e-9)


def test_spearman_monotone_invariance():
    x = np.linspace(0.1, 3.0, 12)
    assert spearman(obs(x, np.exp(x))).rho == pytest.approx(1.0)
    assert spearman(obs(x, x[::-1])).rho == pytest.approx(-1.0)
    rng = np.random.default_rng(4)
    y = rng.normal(size=12)
    assert spearman(obs(x, y)).rho == pytest.approx(
        spearman(obs(x, np.exp(y))).rho, abs=1e-9)


def test_spearman_tied_values_use_mid_ranks():
    # x = (1,2,2,3) has mid-ranks (1, 2.5, 2.5, 4); pearson of those against
    # ranks (1,2,3,4) is 4.5 / sqrt(4.5 * 5) by hand
    result = spearman(obs([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]))
    assert result.rho == pytest.approx(4.5 / math.sqrt(22.5), abs=1e-12)


def test_spearman_all_tied_is_undefined():
    with pytest.raises(UndefinedCorrelationError):
        spearman(obs([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))


def test_midranks_equal_scipy_average_ranks_exactly():
    rng = np.random.default_rng(21)
    cases = [rng.normal(size=n) for n in (2, 7, 200)]  # untied
    cases += [rng.integers(0, k, size=n) for k, n in ((2, 9), (3, 50), (5, 1000))]  # heavily tied
    cases += [rng.integers(0, 4, size=60).astype(float) * 0.1]
    cases += [np.full(6, 2.5), np.array([4.0]), np.array([]), np.array([3.0, math.nan, 1.0])]
    for values in cases:
        expected = rankdata(values, method="average")
        got = midranks(values)
        assert got.dtype == np.float64 and got.shape == values.shape
        # mid-ranks are exact halves, so no tolerance
        np.testing.assert_array_equal(got, expected)


def test_log_pearson_power_law_is_exactly_linear():
    x = np.array([0.5, 1.0, 2.0, 4.0, 9.0])
    result = log_pearson(obs(x, x ** 2))
    assert result.rho == pytest.approx(1.0)
    assert result.log_transformed


def test_log_pearson_rejects_nonpositive_and_names_the_label():
    with pytest.raises(DomainError, match="item1"):
        log_pearson(obs([1.0, 0.0, 2.0], [1.0, 2.0, 3.0]))


def test_log_pearson_equals_pearson_of_logged_series_exactly():
    rng = np.random.default_rng(8)
    x = rng.lognormal(0.0, 1.0, 40)
    y = x ** 1.5 * rng.lognormal(0.0, 0.3, 40)
    assert log_pearson(obs(x, y)).rho == pearson(obs(np.log(x), np.log(y))).rho


# ---------------------------------------------------------------------------
# mann-whitney
# ---------------------------------------------------------------------------

def test_mwu_small_sample_against_exact_enumeration():
    result = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    exact = exact_mwu_two_sided_p([1.0, 2.0], [3.0, 4.0])
    assert exact == pytest.approx(1.0 / 3.0)
    assert result.U == 0.0
    assert abs(result.p - exact) < 0.1


def test_mwu_identical_groups():
    result = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.z == 0.0
    assert result.p == 1.0
    assert result.log10_p == 0.0
    assert result.tie_groups == 3


def test_mwu_symmetry():
    rng = np.random.default_rng(6)
    a = rng.normal(0.0, 1.0, 25)
    b = rng.normal(0.7, 1.0, 31)
    r_ab = mann_whitney_u(a, b)
    r_ba = mann_whitney_u(b, a)
    assert r_ab.p == pytest.approx(r_ba.p, abs=1e-12)
    assert r_ab.z == pytest.approx(-r_ba.z, abs=1e-12)
    assert r_ab.U + r_ba.U == pytest.approx(len(a) * len(b))


def test_mwu_extreme_separation_reports_log_scale_p():
    rng = np.random.default_rng(12)
    a = 1.42 + rng.normal(0.0, 0.01, 500)
    b = 2.12 + rng.normal(0.0, 0.01, 500)
    # 957 vs 957 untied gives z = -37.878, where the linear p is subnormal
    for a, b in ((a, b), (np.arange(957.0), np.arange(957.0, 1914.0))):
        result = mann_whitney_u(a, b)
        assert result.log10_p < -100.0
        assert math.isfinite(result.log10_p)
        # the log-space value agrees with the linear one while that still exists
        assert result.p > 0.0
        assert result.log10_p == pytest.approx(math.log10(result.p), abs=1e-9)


def test_log_normal_tail_matches_scipy_log_ndtr():
    # scipy is the independent oracle; 20 is where the helper switches from
    # erfc to the asymptotic series, and erfc underflows near 38.5
    for z in (0.0, 1.0, 19.999, 20.0, 20.001, 27.0, 37.7, 40.0, 1e3, 1e5):
        expected = float(log_ndtr(-z))
        assert _log_normal_tail(z) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_mwu_normal_approximation_envelope():
    # comparison against the permutation oracle: the normal approximation
    # stays within 0.08 of exact once both groups have >= 3 observations
    # (measured worst case 0.037); the 2-vs-2 case reaches 0.088, so it
    # gets the looser 0.1 bound.  Singleton groups deviate by up to 0.13
    # at extreme U; the acceptance suite documents that gap.
    rng = np.random.default_rng(3)
    for n1 in range(3, 7):
        for n2 in range(n1, 7):
            values = rng.permutation(np.arange(1.0, n1 + n2 + 1))
            for split in range(3):
                perm = rng.permutation(values)
                a, b = perm[:n1], perm[n1:]
                approx = mann_whitney_u(a, b).p
                assert abs(approx - exact_mwu_two_sided_p(a, b)) <= 0.08
    a, b = [1.0, 2.0], [3.0, 4.0]
    assert abs(mann_whitney_u(a, b).p - exact_mwu_two_sided_p(a, b)) <= 0.1


def test_mwu_rejects_non_finite_observations():
    # unchecked, a NaN gives U=nan with p=1.0
    with pytest.raises(DomainError):
        mann_whitney_u([1.0, math.nan, 2.0], [3.0, 4.0, 5.0])
    with pytest.raises(DomainError):
        mann_whitney_u([1.0, 2.0], [3.0, -math.inf])


def test_mwu_all_identical_is_degenerate():
    with pytest.raises(DegenerateDataError):
        mann_whitney_u([5.0, 5.0], [5.0, 5.0, 5.0])


def test_mwu_report_fields():
    text = format_utest_report(mann_whitney_u([1.0, 2.0, 5.0], [3.0, 4.0, 6.0]),
                               label_a="sci", label_b="soc")
    for needle in ("group_a=sci n1=3", "group_b=soc n2=3", "U=", "z=", "p=",
                   "log10_p=", "tie_groups=0"):
        assert needle in text


# ---------------------------------------------------------------------------
# coefficient of variation, ratios, terciles
# ---------------------------------------------------------------------------

def test_cv_of_bigmac_columns():
    fixture = bigmac_fixture()
    real_wage = fixture.y / fixture.x
    assert coefficient_of_variation(real_wage) == pytest.approx(0.62, abs=0.01)
    assert coefficient_of_variation(fixture.x) == pytest.approx(3.85, abs=0.01)
    assert coefficient_of_variation(fixture.y) == pytest.approx(3.23, abs=0.01)


def test_cv_constant_sequence_is_zero():
    assert coefficient_of_variation([3.0, 3.0, 3.0]) == 0.0


def test_cv_domain_errors():
    with pytest.raises(DomainError):
        coefficient_of_variation([1.0, -5.0])  # mean <= 0
    with pytest.raises(DomainError):
        coefficient_of_variation([1.0])


def test_ratio_analysis_reproduces_real_wage_column():
    fixture = bigmac_fixture()
    ra = ratio_analysis(fixture.y, fixture.x, fixture.labels)
    assert ra.labels == fixture.labels  # already ordered by descending ratio
    printed = [8.53, 6.62, 6.09, 6.01, 5.64, 5.60, 5.49, 5.04, 4.74, 4.62, 4.14,
               3.62, 3.18, 3.01, 2.00, 1.77, 1.52, 1.27, 1.04, 0.80, 0.58, 0.56]
    assert np.max(np.abs(ra.raw_ratios - np.array(printed))) <= 0.005


def test_ratio_analysis_proportional_series_normalizes_to_one():
    den = np.array([4.0, 9.0, 2.5, 7.0])
    ra = ratio_analysis(3.0 * den, den, list("abcd"))
    assert np.allclose(ra.normalized, 1.0)
    assert ra.cv == pytest.approx(0.0, abs=1e-12)


def test_ratio_analysis_median_of_normalized_is_one():
    rng = np.random.default_rng(9)
    for n in (3, 4, 7, 10, 101):
        num = rng.lognormal(0, 1, n)
        den = rng.lognormal(0, 1, n)
        ra = ratio_analysis(num, den, [f"x{i}" for i in range(n)])
        assert abs(float(np.median(ra.normalized)) - 1.0) <= 1e-12
        assert (np.diff(ra.raw_ratios) <= 0).all()  # sorted descending


def test_ratio_analysis_cv_matches_recomputation():
    rng = np.random.default_rng(10)
    num = rng.lognormal(0, 0.8, 50)
    den = rng.lognormal(0, 0.2, 50)
    ra = ratio_analysis(num, den, [f"x{i}" for i in range(50)])
    assert ra.cv == pytest.approx(ra.raw_ratios.std(ddof=1) / ra.raw_ratios.mean())


def test_ratio_analysis_excludes_and_reports_zero_denominators():
    ra = ratio_analysis([1.0, 2.0, 3.0], [2.0, 0.0, 4.0], ["a", "b", "c"])
    assert ra.excluded == ("b",)
    assert set(ra.labels) == {"a", "c"}
    with pytest.raises(DegenerateDataError):
        ratio_analysis([1.0, 2.0], [0.0, 0.0], ["a", "b"])


def test_tercile_median_ratio_of_real_wages_is_about_five():
    fixture = bigmac_fixture()
    ratio = tercile_median_ratio(fixture.y / fixture.x)
    assert 4.5 <= ratio <= 6.0


def test_tercile_median_ratio_examples():
    assert tercile_median_ratio([2.0, 2.0, 2.0, 2.0]) == 1.0
    # ceil(4/3) = 2 items off each end: median(8,4) / median(2,1)
    assert tercile_median_ratio([8.0, 4.0, 2.0, 1.0]) == pytest.approx(4.0)


def test_tercile_median_ratio_domain_errors():
    with pytest.raises(DomainError):
        tercile_median_ratio([1.0, 2.0])
    with pytest.raises(DomainError):
        tercile_median_ratio([3.0, -1.0, 2.0])


# ---------------------------------------------------------------------------
# per-field correlations
# ---------------------------------------------------------------------------

def _field_table(assignments):
    return journal_table((jid, jid, set(fields), {2005: 1}) for jid, fields in assignments)


def test_per_field_equal_metrics_give_rho_one():
    ids = ("A", "B", "C")
    table = _field_table([(j, ["medicine"]) for j in ids])
    scores = score_table(ids, ai=[1.0, 2.0, 3.0], impact_factor=[1.0, 2.0, 3.0])
    fc = per_field_correlations(scores, table, "impact_factor", "ai")
    assert fc.by_field["medicine"].rho == pytest.approx(1.0)
    assert fc.pooled.rho == pytest.approx(1.0)


def test_per_field_small_fields_are_skipped_and_reported():
    table = _field_table([("A", ["big", "tiny"]), ("B", ["big"]), ("C", ["big"]),
                          ("D", ["big", "tiny"])])
    scores = score_table(("A", "B", "C", "D"),
                         ai=[1.0, 2.0, 3.0, 4.0], impact_factor=[1.1, 1.9, 3.2, 3.9])
    fc = per_field_correlations(scores, table, "if", "ai")
    assert fc.skipped == ("tiny",)
    assert set(fc.by_field) == {"big"}


def test_per_field_undefined_metrics_dropped_pairwise():
    ids = ("A", "B", "C", "D")
    table = _field_table([(j, ["f"]) for j in ids])
    scores = score_table(ids, ai=[1.0, 2.0, 3.0, np.nan],
                         impact_factor=[1.0, 2.1, 2.9, 4.0])
    fc = per_field_correlations(scores, table, "if", "ai")
    assert fc.by_field["f"].n == 3
    assert fc.by_field["f"].excluded == 1


def test_per_field_recovers_engineered_correlations():
    # shared-component construction: x = sqrt(r)*z + sqrt(1-r)*noise gives
    # corr(x, y) = r for independent noise terms
    rng = np.random.default_rng(9)

    def engineered(rho, n):
        z = rng.normal(size=n)
        e1 = rng.normal(size=n)
        e2 = rng.normal(size=n)
        return (math.sqrt(rho) * z + math.sqrt(1 - rho) * e1,
                math.sqrt(rho) * z + math.sqrt(1 - rho) * e2)

    x1, y1 = engineered(0.9, 200)
    x2, y2 = engineered(0.5, 200)
    ids = tuple(f"J{i:03d}" for i in range(400))
    table = _field_table([(j, ["one"] if i < 200 else ["two"])
                          for i, j in enumerate(ids)])
    scores = score_table(ids, ai=np.concatenate([y1, y2]),
                         impact_factor=np.concatenate([x1, x2]))
    fc = per_field_correlations(scores, table, "impact_factor", "ai")
    assert fc.by_field["one"].rho == pytest.approx(0.9, abs=0.05)
    assert fc.by_field["two"].rho == pytest.approx(0.5, abs=0.05)


def test_per_field_log_mode_drops_nonpositive_values():
    ids = ("A", "B", "C", "D")
    table = _field_table([(j, ["f"]) for j in ids])
    scores = score_table(ids, ai=[1.0, 2.0, 4.0, 0.0],
                         impact_factor=[2.0, 4.0, 8.0, 1.0])
    fc = per_field_correlations(scores, table, "if", "ai", log=True)
    assert fc.by_field["f"].n == 3
    assert fc.by_field["f"].rho == pytest.approx(1.0)
    assert fc.by_field["f"].log_transformed


def test_correlations_csv_layout():
    ids = ("A", "B", "C")
    table = _field_table([(j, ["medicine"]) for j in ids])
    scores = score_table(ids, ai=[1.0, 2.0, 3.0], impact_factor=[1.0, 2.1, 2.8])
    text = write_correlations_csv(per_field_correlations(scores, table, "if", "ai"))
    lines = text.strip().split("\n")
    assert lines[0] == "field,n,rho,kind,log_transformed"
    assert lines[1].startswith("medicine,3,")
    assert lines[2].startswith("(pooled),3,")
    assert lines[1].endswith("pearson,false")


@pytest.mark.parametrize("call, message", [
    (lambda: CorrelationResult(rho=1.5, n=3, kind="pearson"), "rho out of range: 1.5"),
    (lambda: CorrelationResult(rho=0.5, n=1, kind="spearman"), "correlation needs n >= 2"),
    (lambda: pearson_r([1.0, 2.0], [1.0, 2.0, 3.0]), "x and y must be 1-D arrays of equal length"),
    (lambda: pearson_r([[1.0, 2.0]], [[1.0, 2.0]]), "x and y must be 1-D arrays of equal length"),
    (lambda: mann_whitney_u([], [1.0, 2.0]), "both groups need at least one observation"),
    (lambda: mann_whitney_u([1.0], []), "both groups need at least one observation"),
    (lambda: ratio_analysis([1.0, 2.0], [1.0, 2.0], ["A"]),
     "numerator, denominator and labels must have equal lengths")])
def test_statistics_reject_malformed_arguments(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
