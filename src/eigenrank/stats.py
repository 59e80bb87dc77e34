"""Paired observations, the 22-country burger table, and the correlation,
dispersion, ratio and rank-test machinery over them.

Conventions used throughout: sample (n-1) standard deviations; mid-ranks
(average ranks) for ties; two-sided tests.  Extremely small p-values are
reported on a log10 scale computed in log space, since the linear
probability underflows long before the z-scores this package produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import column, csv_text, set_fields
from .errors import DegenerateDataError, DomainError, UndefinedCorrelationError, ValidationError

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

CORRELATIONS_HEADER = ("field", "n", "rho", "kind", "log_transformed")
POOLED_FIELD = "(pooled)"


@dataclass(frozen=True, eq=False)
class PairedObservations:
    """Two aligned numeric series with labels; drives every correlation op."""

    labels: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    x_name: str = "x"
    y_name: str = "y"

    def __post_init__(self):
        set_fields(self, labels=tuple(self.labels), x=column(self.x, float),
                   y=column(self.y, float))
        if not (len(self.labels) == len(self.x) == len(self.y)):
            raise ValidationError("labels, x and y must have equal lengths")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CorrelationResult:
    rho: float
    n: int
    kind: str  # "pearson" | "spearman"
    log_transformed: bool = False
    excluded: int = 0  # pairs dropped for undefined values

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho out of range: {self.rho}")
        if self.n < 2:
            raise ValueError("correlation needs n >= 2")


@dataclass(frozen=True)
class UTestResult:
    """Mann-Whitney result; ``log10_p`` stays finite when ``p`` underflows."""

    U: float
    n1: int
    n2: int
    z: float
    log10_p: float
    p: float
    tie_groups: int


@dataclass(frozen=True, eq=False)
class RatioAnalysis:
    """Element-wise ratio series, ordered from highest ratio to lowest.

    ``normalized`` is ``raw_ratios`` divided by its median, so the median of
    the normalized series is 1 by construction.  Items with nonpositive or
    undefined denominators are dropped and listed in ``excluded``.
    """

    labels: tuple[str, ...]
    raw_ratios: np.ndarray
    normalized: np.ndarray
    mean: float
    std_dev: float
    cv: float
    excluded: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class FieldCorrelations:
    """Per-field correlations plus the pooled all-journals value."""

    by_field: dict[str, CorrelationResult]
    pooled: CorrelationResult
    skipped: tuple[str, ...]  # fields with fewer than 3 usable journals


# ---------------------------------------------------------------------------
# correlation coefficients
# ---------------------------------------------------------------------------

_MOMENT_BLOCK = 4096  # pairs a co-moment block holds: the logistic orbit's memory bound


def pearson_r(x, y) -> float:
    """Product-moment correlation of two equal-length arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x) < 2:
        raise UndefinedCorrelationError("correlation needs at least two observations")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised by _r
        moments = _comoments((x[start:start + _MOMENT_BLOCK], y[start:start + _MOMENT_BLOCK])
                             for start in range(0, len(x), _MOMENT_BLOCK))
    return _r(*moments)


def _comoments(blocks) -> tuple[float, float, float]:
    """Centred sums of squares and cross products ``(sxx, syy, sxy)`` of the
    consecutive ``(x, y)`` blocks, each of at most ``_MOMENT_BLOCK`` pairs.

    The first block is centred on its own mean.  Each later block is shifted
    by those means, centred on its own residual mean and merged by the pairwise
    update of Chan, Golub & LeVeque (1979).  Without the shift, block means far
    from zero would lose the merge's low digits to the offset.  Every sum is
    numpy's pairwise ``add.reduce``, which calls no BLAS, so the result does
    not depend on the CPU's BLAS kernel or thread count (only on the numpy
    release).
    """
    blocks = iter(blocks)
    x, y = next(blocks)
    n = len(x)
    x0, y0 = np.add.reduce(x) / n, np.add.reduce(y) / n  # x.mean() without its wrapper's cost
    xc, yc = x - x0, y - y0
    sxx = float(np.add.reduce(xc * xc))
    syy = float(np.add.reduce(yc * yc))
    sxy = float(np.add.reduce(xc * yc))
    mx = my = None  # the running means past (x0, y0), needed once a second block comes
    for x, y in blocks:
        if mx is None:  # xc and yc are still the first block's
            mx, my = float(np.add.reduce(xc)) / n, float(np.add.reduce(yc)) / n
        k = len(x)
        xc, yc = x - x0, y - y0
        bx, by = float(np.add.reduce(xc)) / k, float(np.add.reduce(yc)) / k
        xc -= bx
        yc -= by
        dx, dy, total = bx - mx, by - my, n + k
        weight = n * k / total
        sxx += float(np.add.reduce(xc * xc)) + dx * dx * weight
        syy += float(np.add.reduce(yc * yc)) + dy * dy * weight
        sxy += float(np.add.reduce(xc * yc)) + dx * dy * weight
        mx += dx * k / total
        my += dy * k / total
        n = total
    return sxx, syy, sxy


def _r(sxx: float, syy: float, sxy: float) -> float:
    """The correlation of centred sums of squares and cross products."""
    if not (math.isfinite(sxx) and math.isfinite(syy)):
        raise DomainError("a series holds a NaN or infinite value, or its variance overflows")
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("a series has zero variance")
    product = sxx * syy
    # the product of two finite sums can overflow or underflow where their roots do not;
    # one in range keeps the bits of sqrt(sxx * syy), which the golden outputs hold
    scale = math.sqrt(product) if 0.0 < product < math.inf else math.sqrt(sxx) * math.sqrt(syy)
    # clamp: rounding can push |rho| a few ulp past 1
    return float(min(1.0, max(-1.0, sxy / scale)))


def midranks(values) -> np.ndarray:
    """1-based ranks of ``values``; each run of ties gets the mean of its rank range.

    An empty input gives an empty array; any NaN makes every rank NaN.
    """
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    n = len(ordered)
    if n and np.isnan(ordered[-1]):  # argsort puts NaN last
        return np.full(n, np.nan)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n]
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def pearson(obs: PairedObservations) -> CorrelationResult:
    return CorrelationResult(pearson_r(obs.x, obs.y), len(obs), "pearson")


def spearman(obs: PairedObservations) -> CorrelationResult:
    """Pearson over mid-ranks; ties get the average of their rank range."""
    rho = pearson_r(midranks(obs.x), midranks(obs.y))
    return CorrelationResult(rho, len(obs), "spearman")


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------

def _log_normal_tail(z: float) -> float:
    """ln P(Z > z) for a standard normal Z, for z >= 0.

    Below z = 20 this is ``ln(erfc(z / sqrt 2) / 2)``.  From z = 20 on, where
    erfc heads for underflow (it reaches 0 near z = 38.5), it is the
    asymptotic Mills-ratio series ``-z^2/2 - ln z - ln(2 pi)/2 + ln(1 - w +
    3w^2 - 15w^3 + 105w^4 - 945w^5)`` with ``w = 1/z^2``, whose first omitted
    term is below 3e-12 of the bracket at z = 20.  The relative error
    against scipy's ``log_ndtr(-z)`` is about 1e-14 over [0, 1e6].
    """
    if z < 20.0:
        return math.log(0.5 * math.erfc(z / math.sqrt(2.0)))
    w = 1.0 / (z * z)
    series = 1.0 - w * (1.0 - w * (3.0 - w * (15.0 - w * (105.0 - 945.0 * w))))
    return -0.5 * z * z - math.log(z) - _HALF_LN_2PI + math.log(series)


def mann_whitney_u(group_a, group_b) -> UTestResult:
    """Two-sided Mann-Whitney U test via the normal approximation.

    U is computed from mid-rank sums for ``group_a``; the variance is
    tie-corrected and the z-score carries a 0.5 continuity correction toward
    the mean.  ``p`` is ``erfc(|z| / sqrt 2)``, which is subnormal for |z|
    from about 37.7 to 38.5 and 0 beyond.  ``log10_p`` is evaluated from the
    normal tail in log space, so separations far beyond the underflow point
    still report a finite magnitude; printed to 4 decimals, it can differ
    from the value scipy's ``log_ndtr`` gives only in the last digit, and
    only where the two round either side of a tie.

    Accuracy: for untied samples the p stays within 0.08 of the exact
    permutation p once both groups have at least 3 observations (worst gap
    0.0375, at 3 vs 3, over all sizes up to 8).  With smaller groups it can
    be off by more: up to 0.129 when one group is a singleton (1 vs 3 at
    U=0, exact 0.5 against 0.371), and 0.088 at 2 vs 2.

    A NaN or infinite observation raises DomainError.
    """
    a = np.asarray(group_a, dtype=float)
    b = np.asarray(group_b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 < 1 or n2 < 1:
        raise ValueError("both groups need at least one observation")
    pooled = np.concatenate([a, b])
    if not np.isfinite(pooled).all():
        raise DomainError("Mann-Whitney U needs finite observations")
    n = n1 + n2
    ranks = midranks(pooled)
    u = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    _, counts = np.unique(pooled, return_counts=True)
    tie_groups = int((counts > 1).sum())
    tie_term = float((counts.astype(float) ** 3 - counts).sum())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if variance <= 0:
        raise DegenerateDataError("all pooled observations are identical")
    sigma = math.sqrt(variance)
    centered = u - n1 * n2 / 2.0
    if centered > 0:
        centered -= 0.5
    elif centered < 0:
        centered += 0.5
    z = centered / sigma
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    log10_p = min(0.0, (_LN2 + _log_normal_tail(abs(z))) / _LN10)
    return UTestResult(U=u, n1=n1, n2=n2, z=z, log10_p=log10_p, p=p, tie_groups=tie_groups)


def format_utest_report(result: UTestResult, label_a: str = "group_a",
                        label_b: str = "group_b") -> str:
    lines = [
        "mann-whitney-u",
        f"group_a={label_a} n1={result.n1}",
        f"group_b={label_b} n2={result.n2}",
        f"U={result.U:.1f}",
        f"z={result.z:.4f}",
        f"p={result.p:.6g}",
        f"log10_p={result.log10_p:.4f}",
        f"tie_groups={result.tie_groups}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispersion and ratios
# ---------------------------------------------------------------------------

def coefficient_of_variation(xs) -> float:
    """Sample standard deviation divided by the mean (mean must be positive)."""
    xs = np.asarray(xs, dtype=float)
    if len(xs) < 2:
        raise DomainError("coefficient of variation needs at least two values")
    if not np.isfinite(xs).all():
        raise DomainError("coefficient of variation needs finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        mean, std = float(xs.mean()), float(xs.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DomainError("coefficient of variation overflows: the values' sum or variance "
                          "is past the float range")
    if mean <= 0:
        raise DomainError(f"coefficient of variation undefined for mean {mean!r}")
    return std / mean


def ratio_analysis(numerator, denominator, labels) -> RatioAnalysis:
    """Per-item ratios with median normalization, sorted highest first.

    Items whose denominator is not strictly positive (or where either side
    is NaN) are excluded and reported rather than failing the whole series.
    A median ratio of 0 (as when most numerators are 0) leaves nothing to
    normalize by, and a negative one would reverse the order: both raise
    DegenerateDataError.  A ratio, sum or variance past the float range, or
    a mean ratio that is not positive (so no coefficient of variation),
    raises DomainError.
    """
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    labels = tuple(labels)
    if not (len(num) == len(den) == len(labels)):
        raise ValueError("numerator, denominator and labels must have equal lengths")
    keep = (den > 0) & np.isfinite(den) & np.isfinite(num)
    excluded = tuple(lbl for lbl, k in zip(labels, keep) if not k)
    if not keep.any():
        raise DegenerateDataError("no item has a positive denominator")
    kept_labels = np.array([lbl for lbl, k in zip(labels, keep) if k], dtype=object)
    with np.errstate(over="ignore"):  # an overflow is raised below
        ratios = num[keep] / den[keep]
    overflowed = np.flatnonzero(~np.isfinite(ratios))
    if overflowed.size:
        raise DomainError(f"the ratio for {kept_labels[overflowed[0]]!r} is past the float range")
    order = np.lexsort((kept_labels, -ratios))  # descending ratio, label breaks ties
    ratios = ratios[order]
    kept_labels = kept_labels[order]
    median = float(np.median(ratios))
    if median <= 0:
        held = (f"0 ({int((ratios == 0).sum())} of {len(ratios)} ratios are 0)" if median == 0
                else f"{median!r}, below 0")
        raise DegenerateDataError(f"the median ratio is {held}, so it cannot normalize them")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(ratios.mean())
        std = float(ratios.std(ddof=1)) if len(ratios) > 1 else 0.0
        normalized = ratios / median
    if not (math.isfinite(mean) and math.isfinite(std) and np.isfinite(normalized).all()):
        raise DomainError("the ratios' sum or variance, or a ratio over their median, "
                          "is past the float range")
    if mean <= 0:
        raise DomainError(f"coefficient of variation undefined for mean ratio {mean!r}")
    return RatioAnalysis(
        labels=tuple(kept_labels),
        raw_ratios=column(ratios, float),
        normalized=column(normalized, float),
        mean=mean, std_dev=std, cv=std / mean, excluded=excluded)


def tercile_median_ratio(xs) -> float:
    """median(top third) / median(bottom third) after a descending sort.

    Both terciles take ceil(n/3) items off their end of the sorted series.
    """
    xs = np.asarray(xs, dtype=float)
    if len(xs) < 3:
        raise DomainError("tercile ratio needs at least three values")
    if not np.isfinite(xs).all():
        raise DomainError("tercile ratio needs finite values")
    if (xs <= 0).any():
        raise DomainError("tercile ratio requires strictly positive values")
    ordered = np.sort(xs)[::-1]
    k = math.ceil(len(xs) / 3)
    return float(np.median(ordered[:k]) / np.median(ordered[-k:]))


# ---------------------------------------------------------------------------
# per-field correlations
# ---------------------------------------------------------------------------

def per_field_correlations(scores, table: JournalTable, x_metric: str, y_metric: str,
                           log: bool = False) -> FieldCorrelations:
    """One correlation per field label, plus the pooled all-journals value.

    Journals cross-listed in several fields count in each.  Pairs with an
    undefined metric (NaN) -- and, for log correlations, nonpositive values
    -- are dropped and counted in ``excluded``.  Fields left with fewer than
    3 usable journals are skipped and reported, not fatal.
    """
    x = np.asarray(scores.metric(x_metric), dtype=float)
    y = np.asarray(scores.metric(y_metric), dtype=float)
    usable = np.isfinite(x) & np.isfinite(y)
    if log:
        usable &= (x > 0) & (y > 0)
    position = {jid: i for i, jid in enumerate(scores.journal_ids)}
    # the score position of each table journal, -1 where it has no score
    scored = np.array([position.get(jid, -1) for jid in table.ids], dtype=int)

    def correlate(indices: np.ndarray) -> CorrelationResult:
        sel = indices[usable[indices]]
        xs, ys = (np.log(x[sel]), np.log(y[sel])) if log else (x[sel], y[sel])
        return CorrelationResult(pearson_r(xs, ys), n=len(sel), kind="pearson",
                                 log_transformed=log, excluded=len(indices) - len(sel))

    by_field: dict[str, CorrelationResult] = {}
    skipped: list[str] = []
    for k, field in enumerate(table.labels):
        indices = scored[table.field_positions(k)]
        indices = indices[indices >= 0]
        if usable[indices].sum() < 3:
            skipped.append(field)
            continue
        by_field[field] = correlate(indices)
    pooled = correlate(np.arange(len(x)))
    return FieldCorrelations(by_field=by_field, pooled=pooled, skipped=tuple(skipped))


def write_correlations_csv(fc: FieldCorrelations) -> str:
    """correlations.csv text: one row per field plus the pooled row."""
    results = [(field, fc.by_field[field]) for field in sorted(fc.by_field)]
    results.append((POOLED_FIELD, fc.pooled))
    return csv_text(CORRELATIONS_HEADER, (
        [field, r.n, f"{r.rho:.6f}", r.kind, str(r.log_transformed).lower()]
        for field, r in results))


# ---------------------------------------------------------------------------
# embedded fixture: Big Mac price vs hourly wage, 22 countries
# ---------------------------------------------------------------------------

# (country, burger price, mean hourly wage), both in local currency,
# ordered by purchasing power (wage / price), highest first.
_BIGMAC_ROWS = (
    ("Denmark", 24.75, 211.13),
    ("Australia", 3.00, 19.86),
    ("New Zealand", 3.60, 21.94),
    ("Switzerland", 6.30, 37.85),
    ("United States", 2.54, 14.32),
    ("Britain/UK", 1.99, 11.15),
    ("Germany", 2.61, 14.32),
    ("Canada", 3.33, 16.78),
    ("Singapore", 3.30, 15.65),
    ("Sweden", 24.00, 110.90),
    ("Hong Kong", 10.70, 44.26),
    ("Spain", 2.37, 8.59),
    ("South Africa", 9.70, 30.86),
    ("France", 2.82, 8.50),
    ("Poland", 5.90, 11.80),
    ("Hungary", 399.00, 704.34),
    ("Czech Rep.", 56.00, 85.34),
    ("Brazil", 3.60, 4.58),
    ("South Korea", 3000.00, 3134.00),
    ("Mexico", 21.90, 17.61),
    ("Thailand", 55.00, 31.69),
    ("China", 9.90, 5.56),
)


def bigmac_fixture() -> PairedObservations:
    """The 22-country burger-price / hourly-wage table as paired observations."""
    return PairedObservations(
        labels=tuple(r[0] for r in _BIGMAC_ROWS),
        x=[r[1] for r in _BIGMAC_ROWS],
        y=[r[2] for r in _BIGMAC_ROWS],
        x_name="burger_price",
        y_name="hourly_wage",
    )


def bigmac_csv() -> str:
    """The fixture as CSV text with header ``country,burger_price,hourly_wage``."""
    return csv_text(("country", "burger_price", "hourly_wage"), (
        [country, f"{price:.2f}", f"{wage:.2f}"] for country, price, wage in _BIGMAC_ROWS))
