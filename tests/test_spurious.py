import math
import tracemalloc

import numpy as np
import pytest

from eigenrank import (DistributionSpec, UndefinedCorrelationError, lognormal_from_cv,
                       logistic_map_correlation, simulate_journal_sizes,
                       simulate_ossuary, simulate_yule_products, spec_from_cv)
from eigenrank.spurious import SimulationResult, format_summary, write_simulation_csv
from eigenrank.stats import _MOMENT_BLOCK, pearson_r
from helpers import log_variance_share, reference_logistic_correlation


# ---------------------------------------------------------------------------
# distribution specs
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError, match="family"):
        DistributionSpec("cauchy", 0.0, 1.0)
    with pytest.raises(ValueError, match="scale"):
        DistributionSpec("lognormal", 0.0, 0.0)
    with pytest.raises(ValueError, match="location"):
        DistributionSpec("normal-truncated-positive", -1.0, 1.0)
    with pytest.raises(ValueError, match="support"):
        DistributionSpec("uniform-positive", -5.0, 1.0)


def test_nan_and_infinite_parameters_are_rejected_before_sampling():
    for cv in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match=f"^cv must be positive and finite, got {cv}$"):
            lognormal_from_cv(cv)
    for family in ("normal-truncated-positive", "uniform-positive"):
        for cv in (math.nan, math.inf):
            with pytest.raises(ValueError):
                spec_from_cv(family, cv)
    # NaN passes a `location <= 0` check, and then the rejection sampler never fills
    for location, scale in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="^location must be finite, and scale positive and "
                                             "finite$"):
            DistributionSpec("normal-truncated-positive", location, scale)


def test_lognormal_from_cv_calibration():
    rng = np.random.default_rng(0)
    for cv in (0.1, 0.5, 1.910):
        draws = lognormal_from_cv(cv, mean=2.0).sample(rng, 200_000)
        assert draws.mean() == pytest.approx(2.0, rel=0.05)
        assert draws.std(ddof=1) / draws.mean() == pytest.approx(cv, rel=0.05)


def test_all_families_sample_strictly_positive():
    rng = np.random.default_rng(1)
    for family in ("lognormal", "normal-truncated-positive", "uniform-positive"):
        spec = spec_from_cv(family, 0.9)
        draws = spec.sample(rng, 50_000)
        assert (draws > 0).all()


# ---------------------------------------------------------------------------
# ossuary indices
# ---------------------------------------------------------------------------

def test_ossuary_equal_cv_correlates_near_half():
    spec = lognormal_from_cv(0.1)
    result = simulate_ossuary(spec, spec, spec, n_bones=1000, trials=200, seed=7)
    assert 0.40 <= result.mean_rho <= 0.55


def test_ossuary_constant_denominator_kills_the_correlation():
    spec = lognormal_from_cv(0.1)
    nearly_constant = lognormal_from_cv(1e-9)
    result = simulate_ossuary(spec, spec, nearly_constant, n_bones=1000,
                              trials=200, seed=7)
    assert abs(result.mean_rho) <= 0.05


def test_ossuary_unequal_cvs_match_small_cv_approximation():
    vf = vt = 0.05
    vh = 0.2
    expected = vh ** 2 / np.sqrt((vf ** 2 + vh ** 2) * (vt ** 2 + vh ** 2))
    result = simulate_ossuary(lognormal_from_cv(vf), lognormal_from_cv(vt),
                              lognormal_from_cv(vh), n_bones=1000, trials=200, seed=5)
    assert result.mean_rho == pytest.approx(expected, abs=0.03)


_SPEC = lognormal_from_cv(0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: spec_from_cv("cauchy", 0.1), "unknown distribution family 'cauchy'"),
    (lambda: SimulationResult(trials=2, rho=[0.1], mean_rho=0.1, sd_rho=0.0, seed=0),
     "per-trial rho length must equal trials"),
    (lambda: SimulationResult(trials=1, rho=[0.1], mean_rho=1.5, sd_rho=0.0, seed=0),
     "mean_rho out of [-1, 1]"),
    (lambda: simulate_ossuary(_SPEC, _SPEC, _SPEC, n_bones=100, trials=0, seed=0),
     "trials must be at least 1"),
    (lambda: simulate_yule_products(_SPEC, _SPEC, _SPEC, n=100, trials=1, seed=-1),
     "seed must be a nonnegative integer"),
    (lambda: logistic_map_correlation(4.0, 0.2, 1000, burn_in=-1),
     "burn_in must be nonnegative")])
def test_simulation_arguments_are_checked(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_ossuary_rejects_tiny_samples():
    spec = lognormal_from_cv(0.1)
    with pytest.raises(ValueError):
        simulate_ossuary(spec, spec, spec, n_bones=5, trials=10, seed=0)


# ---------------------------------------------------------------------------
# product construction
# ---------------------------------------------------------------------------

def test_yule_products_correlate_positively():
    spec = lognormal_from_cv(0.3)
    result = simulate_yule_products(spec, spec, spec, n=1000, trials=300, seed=11)
    assert result.mean_rho > 0
    assert (result.rho > 0).mean() >= 0.99
    assert result.mean_rho == pytest.approx(log_variance_share(0.3, 0.3, 0.3), abs=0.05)


def test_yule_constant_common_factor_gives_no_correlation():
    spec = lognormal_from_cv(0.3)
    result = simulate_yule_products(spec, spec, lognormal_from_cv(1e-9),
                                    n=1000, trials=200, seed=11)
    assert abs(result.mean_rho) <= 0.05


def test_yule_dominant_common_factor_drives_rho_high():
    z = lognormal_from_cv(0.1)
    result = simulate_yule_products(z, z, lognormal_from_cv(2.0),
                                    n=1000, trials=200, seed=11)
    assert result.mean_rho > 0.9


# ---------------------------------------------------------------------------
# journal sizes
# ---------------------------------------------------------------------------

def test_journal_size_with_reported_cvs_lands_near_06():
    result = simulate_journal_sizes(1.785, 1.548, 1.910, n_journals=2000,
                                    trials=50, seed=13)
    assert 0.5 <= result.mean_rho <= 0.7


def test_journal_size_without_size_spread_has_no_correlation():
    result = simulate_journal_sizes(1.785, 1.548, 1e-6, n_journals=2000,
                                    trials=50, seed=13)
    assert abs(result.mean_rho) <= 0.05


def test_journal_size_matches_log_variance_share_formula():
    rng = np.random.default_rng(21)
    for _ in range(4):
        cvs = rng.uniform(0.3, 2.5, size=3)
        result = simulate_journal_sizes(*cvs, n_journals=4000, trials=30,
                                        seed=int(rng.integers(1_000_000)))
        assert result.mean_rho == pytest.approx(log_variance_share(*cvs), abs=0.05)


# ---------------------------------------------------------------------------
# shared simulation behavior
# ---------------------------------------------------------------------------

def test_identical_seed_gives_bit_identical_results():
    spec = lognormal_from_cv(0.4)
    first = simulate_ossuary(spec, spec, spec, n_bones=50, trials=30, seed=99)
    second = simulate_ossuary(spec, spec, spec, n_bones=50, trials=30, seed=99)
    assert np.array_equal(first.rho, second.rho)
    assert first.mean_rho == second.mean_rho
    different = simulate_ossuary(spec, spec, spec, n_bones=50, trials=30, seed=98)
    assert not np.array_equal(first.rho, different.rho)


def test_every_per_trial_rho_is_a_correlation():
    spec = lognormal_from_cv(1.5)
    result = simulate_yule_products(spec, spec, spec, n=30, trials=200, seed=1)
    assert (result.rho >= -1.0).all() and (result.rho <= 1.0).all()
    assert len(result.rho) == result.trials == 200


def test_results_invariant_under_common_rescaling():
    # units cancel in ratios and correlations: scaling a linear family's
    # location and spread together must not move the simulated mean
    base = [spec_from_cv("uniform-positive", cv) for cv in (0.2, 0.2, 0.3)]
    scaled = [DistributionSpec(s.kind, 3.0 * s.location, 3.0 * s.scale) for s in base]
    a = simulate_ossuary(*base, n_bones=500, trials=100, seed=17)
    b = simulate_ossuary(*scaled, n_bones=500, trials=100, seed=17)
    assert abs(a.mean_rho - b.mean_rho) <= 2.0 * a.sd_rho
    shift = [DistributionSpec("lognormal", s.location + np.log(3.0), s.scale)
             for (s,) in zip((lognormal_from_cv(0.3),) * 3)]
    c = simulate_yule_products(*([lognormal_from_cv(0.3)] * 3), n=500, trials=100, seed=17)
    d = simulate_yule_products(*shift, n=500, trials=100, seed=17)
    assert abs(c.mean_rho - d.mean_rho) <= 2.0 * c.sd_rho


def test_trial_streams_follow_the_documented_layout():
    # rebuild every trial from its own SeedSequence([seed, t]) stream, drawing
    # in signature order; distinct specs make a swapped draw order show
    seed, n, trials = 11, 40, 6
    specs = [lognormal_from_cv(cv) for cv in (0.2, 0.5, 0.9)]

    def draws(t):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        return [rng.lognormal(s.location, s.scale, n) for s in specs]

    def ossuary_rho(t):
        f, ti, h = draws(t)
        return pearson_r(f / h, ti / h)

    def yule_rho(t):
        a, b, c = draws(t)
        return pearson_r(a * c, b * c)

    def size_rho(t):
        ai, impact, n5 = draws(t)
        return pearson_r(np.log(ai) + np.log(n5), np.log(impact) + np.log(n5))

    cases = [
        (simulate_ossuary(*specs, n_bones=n, trials=trials, seed=seed), ossuary_rho),
        (simulate_yule_products(*specs, n=n, trials=trials, seed=seed), yule_rho),
        (simulate_journal_sizes(0.2, 0.5, 0.9, n_journals=n, trials=trials, seed=seed),
         size_rho),
    ]
    for result, rho_of in cases:
        want = np.array([rho_of(t) for t in range(trials)])
        assert np.array_equal(result.rho, want)
        assert result.mean_rho == float(want.mean())
        assert result.sd_rho == float(want.std(ddof=1))


def test_simulation_csv_and_summary_are_deterministic():
    spec = lognormal_from_cv(0.4)
    result = simulate_ossuary(spec, spec, spec, n_bones=50, trials=5, seed=2)
    text = write_simulation_csv(result)
    assert text.splitlines()[0] == "trial,rho"
    assert len(text.strip().splitlines()) == 6
    summary = format_summary(result)
    assert "seed=2" in summary and "trials=5" in summary and "mean_rho=" in summary


# ---------------------------------------------------------------------------
# logistic map
# ---------------------------------------------------------------------------

def test_logistic_map_chaos_is_uncorrelated():
    rho = logistic_map_correlation(4.0, 0.2, 200_000)
    assert abs(rho) <= 0.01


@pytest.mark.parametrize("r, x0, n, burn_in", [
    (4.0, 0.2, 1_000_000, 1000), (4.0, 0.713, 5000, 0), (3.7, 0.5, 20_000, 17),
    (3.2, 0.3, 1000, 1000), (4.0, 0.4, 2 * _MOMENT_BLOCK + 1, 3)])
def test_logistic_map_equals_a_plain_loop_exactly(r, x0, n, burn_in):
    assert logistic_map_correlation(r, x0, n, burn_in) == reference_logistic_correlation(
        r, x0, n, burn_in)


@pytest.mark.parametrize("n", [200_000, 1_000_000])
def test_logistic_map_peak_memory_does_not_grow_with_n(n):
    # the orbit is made and correlated a block of iterates at a time; holding
    # it whole took 8 bytes an iterate (7.6 MiB at n = 10**6)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        logistic_map_correlation(4.0, 0.2, n)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2**20


def test_logistic_map_fixed_point_is_undefined():
    with pytest.raises(UndefinedCorrelationError):
        logistic_map_correlation(2.5, 0.2, 10_000)


def test_logistic_map_rho_independent_of_start_point():
    first = logistic_map_correlation(4.0, 0.2, 100_000)
    second = logistic_map_correlation(4.0, 0.713, 100_000)
    assert abs(first - second) <= 0.02


def test_logistic_map_validates_inputs():
    with pytest.raises(ValueError):
        logistic_map_correlation(4.5, 0.2, 10_000)
    with pytest.raises(ValueError):
        logistic_map_correlation(4.0, 1.2, 10_000)
    with pytest.raises(ValueError):
        logistic_map_correlation(4.0, 0.2, 10)
