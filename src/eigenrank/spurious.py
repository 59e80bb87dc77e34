"""Monte-Carlo constructions of classically spurious correlations.

Three generators show how a shared component manufactures correlation out
of independent draws: ratios over a common denominator (the ossuary bone
indices), products with a common factor (death-rate style totals), and
journal-size metrics where article count multiplies both sides.  A fourth
demonstrates the converse trap: logistic-map iterates that are perfectly
dependent yet uncorrelated.

Each trial runs on its own RNG stream, ``SeedSequence([seed, trial])``, so
results are reproducible regardless of execution order.  A trial draws its
variables from that stream in the order the simulator's signature lists them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ._util import FAMILIES, column, csv_text, set_fields
from .errors import UndefinedCorrelationError
from .stats import _MOMENT_BLOCK, _comoments, _r, pearson_r

# a series whose spread is this small is treated as constant (the logistic
# map near a fixed point settles into a last-ulp two-cycle, never exactly flat)
_CONSTANT_SPREAD = 1e-9


@dataclass(frozen=True)
class DistributionSpec:
    """A strictly positive sampling distribution.

    * ``lognormal``: location/scale are the underlying normal's mu/sigma.
    * ``normal-truncated-positive``: N(location, scale^2) with nonpositive
      draws rejected and redrawn.
    * ``uniform-positive``: uniform on (location - scale, location + scale),
      nonpositive draws rejected.
    """

    kind: str
    location: float
    scale: float

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown distribution family {self.kind!r}")
        if not (math.isfinite(self.location) and 0.0 < self.scale < math.inf):
            raise ValueError("location must be finite, and scale positive and finite")
        if self.kind == "normal-truncated-positive" and self.location <= 0:
            raise ValueError("truncated normal needs a positive location")
        if self.kind == "uniform-positive" and self.location + self.scale <= 0:
            raise ValueError("uniform support must reach above zero")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "lognormal":
            return rng.lognormal(self.location, self.scale, size)
        out = np.empty(size)
        filled = 0
        while filled < size:  # rejection keeps every value strictly positive
            if self.kind == "normal-truncated-positive":
                draw = rng.normal(self.location, self.scale, size - filled)
            else:
                draw = rng.uniform(self.location - self.scale,
                                   self.location + self.scale, size - filled)
            draw = draw[draw > 0]
            out[filled:filled + len(draw)] = draw
            filled += len(draw)
        return out


def lognormal_from_cv(cv: float, mean: float = 1.0) -> DistributionSpec:
    """Lognormal spec whose population coefficient of variation is ``cv``.

    cv c implies log-variance ln(1 + c^2); location is set so the
    distribution mean equals ``mean``.
    """
    if not 0.0 < cv < math.inf:
        raise ValueError(f"cv must be positive and finite, got {cv}")
    sigma2 = math.log1p(cv * cv)
    return DistributionSpec("lognormal", math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2))


def spec_from_cv(family: str, cv: float, mean: float = 1.0) -> DistributionSpec:
    """Family-appropriate spec targeting the given cv (exact for lognormal;
    calibrated on the untruncated distribution for the others)."""
    if family == "lognormal":
        return lognormal_from_cv(cv, mean)
    if family == "normal-truncated-positive":
        return DistributionSpec(family, mean, cv * mean)
    if family == "uniform-positive":
        return DistributionSpec(family, mean, math.sqrt(3.0) * cv * mean)
    raise ValueError(f"unknown distribution family {family!r}")


@dataclass(frozen=True, eq=False)
class SimulationResult:
    trials: int
    rho: np.ndarray  # one correlation per trial
    mean_rho: float
    sd_rho: float
    seed: int
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        set_fields(self, rho=column(self.rho, float))
        if len(self.rho) != self.trials:
            raise ValueError("per-trial rho length must equal trials")
        if not -1.0 <= self.mean_rho <= 1.0:
            raise ValueError("mean_rho out of [-1, 1]")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # counter-based split: stream t is fully determined by (seed, t)
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _run_trials(trial_rho: Callable[[np.random.Generator], float], n: int, trials: int,
                seed: int, what: str, params: dict) -> SimulationResult:
    """Check the shared arguments, then call ``trial_rho`` once per trial on
    that trial's own stream and collect the correlations."""
    if n < 10:
        raise ValueError(f"{what} needs at least 10 draws per trial, got {n}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    rho = np.array([trial_rho(_trial_rng(seed, t)) for t in range(trials)])
    sd = float(rho.std(ddof=1)) if trials > 1 else 0.0
    return SimulationResult(trials=trials, rho=rho, mean_rho=float(rho.mean()),
                            sd_rho=sd, seed=seed, params=params)


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------

def simulate_ossuary(femur: DistributionSpec, tibia: DistributionSpec,
                     humerus: DistributionSpec, n_bones: int, trials: int,
                     seed: int) -> SimulationResult:
    """Randomly assembled bone triples: correlation of femur/humerus vs
    tibia/humerus induced purely by the shared denominator.

    With roughly equal coefficients of variation the indices correlate near
    0.5 even though all three lengths are drawn independently.
    """
    def trial_rho(rng):
        f = femur.sample(rng, n_bones)
        ti = tibia.sample(rng, n_bones)
        h = humerus.sample(rng, n_bones)
        return pearson_r(f / h, ti / h)

    return _run_trials(trial_rho, n_bones, trials, seed, "ossuary simulation", {
        "simulation": "ossuary", "n_bones": n_bones,
        "femur": femur, "tibia": tibia, "humerus": humerus})


def simulate_yule_products(z1: DistributionSpec, z2: DistributionSpec,
                           x3: DistributionSpec, n: int, trials: int,
                           seed: int) -> SimulationResult:
    """Products with a common factor: rho(z1*x3, z2*x3) for independent draws."""
    def trial_rho(rng):
        a = z1.sample(rng, n)
        b = z2.sample(rng, n)
        c = x3.sample(rng, n)
        return pearson_r(a * c, b * c)

    return _run_trials(trial_rho, n, trials, seed, "product simulation", {
        "simulation": "yule", "n": n,
        "z1": z1, "z2": z2, "x3": x3})


def simulate_journal_sizes(ai_cv: float, if_cv: float, n5_cv: float,
                           n_journals: int, trials: int, seed: int) -> SimulationResult:
    """Spurious size-driven correlation between the two composite metrics.

    Draws per-article influence, per-article impact and article counts as
    independent lognormals calibrated to the given coefficients of
    variation, forms log(total influence) = log AI + log N and
    log(total cites) = log IF + log N, and correlates the logged pair.
    The expected value is the article-count share of the log variance:
    sigma_N^2 / sqrt((sigma_AI^2 + sigma_N^2)(sigma_IF^2 + sigma_N^2)).
    """
    ai_spec = lognormal_from_cv(ai_cv)
    if_spec = lognormal_from_cv(if_cv)
    n5_spec = lognormal_from_cv(n5_cv)

    def trial_rho(rng):
        ai = ai_spec.sample(rng, n_journals)
        impact = if_spec.sample(rng, n_journals)
        log_n5 = np.log(n5_spec.sample(rng, n_journals))
        return pearson_r(np.log(ai) + log_n5, np.log(impact) + log_n5)

    return _run_trials(trial_rho, n_journals, trials, seed, "journal-size simulation", {
        "simulation": "journal-size", "n_journals": n_journals,
        "ai_cv": ai_cv, "if_cv": if_cv, "n5_cv": n5_cv})


def logistic_map_correlation(r: float, x0: float, n: int, burn_in: int = 1000) -> float:
    """Correlation between successive logistic-map iterates.

    Iterates x <- r*x*(1-x) from ``x0``, discards ``burn_in`` steps, then
    correlates (x_k) with (x_{k+1}) over ``n`` pairs.  In the fully chaotic
    regime (r = 4) the two series are algebraically locked together yet
    their correlation is zero.  An orbit that has collapsed to a fixed
    point (or to exact zero) yields a constant series, which makes the
    correlation undefined.
    """
    if not 0.0 < r <= 4.0:
        raise ValueError("r must lie in (0, 4]")
    if not 0.0 < x0 < 1.0:
        raise ValueError("x0 must lie in (0, 1)")
    if n < 1000:
        raise ValueError("need at least 1000 iterates for a stable estimate")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    x = x0
    for _ in range(burn_in):
        x = r * x * (1.0 - x)

    # the iterates after x; the loop reads r and steps fastest as its own locals
    def orbit(x: float, r: float, steps: int):
        for _ in itertools.repeat(None, steps):
            x = r * x * (1.0 - x)
            yield x

    iterates = orbit(x, r, n)
    lo = hi = x

    # the pairs (x_k, x_{k+1}) a block at a time, so the orbit is never held
    # whole; a block's first earlier iterate is the last of the block before
    def pairs():
        nonlocal lo, hi
        later = np.array([x])
        for start in range(0, n, _MOMENT_BLOCK):
            earlier = later[-1:]
            later = np.fromiter(iterates, dtype=float, count=min(_MOMENT_BLOCK, n - start))
            lo, hi = min(lo, float(later.min())), max(hi, float(later.max()))
            yield np.concatenate((earlier, later[:-1])), later

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised by _r
        moments = _comoments(pairs())
    if hi - lo <= _CONSTANT_SPREAD:
        raise UndefinedCorrelationError(
            f"orbit is constant after burn-in (converged near {x:.6g})")
    return _r(*moments)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_simulation_csv(result: SimulationResult) -> str:
    return csv_text(("trial", "rho"), ([t, f"{rho:.12g}"] for t, rho in enumerate(result.rho)))


def format_summary(result: SimulationResult) -> str:
    q = np.quantile(result.rho, [0.0, 0.25, 0.5, 0.75, 1.0])
    lines = [
        f"seed={result.seed}",
        f"trials={result.trials}",
        f"mean_rho={result.mean_rho:.6f}",
        f"sd_rho={result.sd_rho:.6f}",
        f"min={q[0]:.6f} q25={q[1]:.6f} median={q[2]:.6f} q75={q[3]:.6f} max={q[4]:.6f}",
    ]
    for key in sorted(result.params):
        lines.append(f"{key}={result.params[key]}")
    return "\n".join(lines) + "\n"
