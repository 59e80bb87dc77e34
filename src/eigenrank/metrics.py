"""Influence metrics over a citation window.

Computes the Eigenfactor score (EF), Article Influence (AI), two-year
Impact Factor (IF) and Total Citations (TC) for every journal of a corpus,
plus the multiplicative decomposition diagnostics that relate them.

EF comes from a damped fixed-point iteration on the column-normalized
citation matrix; dangling journals (those giving no in-window citations)
redistribute their weight through the article vector.  Scores are scaled so
EF sums to 100 and the article-weighted mean AI is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

from ._util import csv_reader, csv_text, readonly
from .corpus import (CitationLedger, CitationMatrix, JournalTable, _int64_sums, _int_field,
                     build_citation_matrix)
from .errors import (ConvergenceError, CsvFormatError, DegenerateDataError,
                     InconsistencyError)

DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1000

_METRIC_ALIASES = {
    "ef": "ef", "eigenfactor": "ef",
    "ai": "ai", "article_influence": "ai",
    "if": "impact_factor", "impact_factor": "impact_factor",
    "tc": "total_citations", "total_citations": "total_citations",
    "n5": "n5", "n2": "n2",
}

SCORES_HEADER = ("journal_id", "ef", "ai", "impact_factor", "total_citations", "n5", "n2")


def resolve_metric(name: str) -> str:
    """Map a metric name or alias (``if``, ``tc``, ...) to its column name."""
    try:
        return _METRIC_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; expected one of "
                         f"{sorted(set(_METRIC_ALIASES))}") from None


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverReport:
    """Convergence record for one fixed-point solve."""

    iterations: int
    final_residual: float
    alpha: float
    tolerance: float
    dangling_count: int
    residuals: tuple[float, ...]  # L1 change per iteration, in order


@dataclass(frozen=True, eq=False)
class MetricScores:
    """Per-journal metric vectors.

    ``census_year`` is the year the scores were computed for, or None for
    scores read back from scores.csv, which records no year.  Undefined
    values (AI or IF of a journal with no articles in the relevant window)
    are stored as NaN and excluded from correlations downstream.

    The exact metric invariants are checked only when ``census_year`` is
    set: values printed to six decimals cannot meet them.
    """

    census_year: int | None
    journal_ids: tuple[str, ...]
    ef: np.ndarray
    ai: np.ndarray
    impact_factor: np.ndarray
    total_citations: np.ndarray
    n5: np.ndarray
    n2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "journal_ids", tuple(self.journal_ids))
        n = len(self.journal_ids)
        for name in SCORES_HEADER[1:]:
            dtype = float if name in SCORES_HEADER[1:4] else np.int64
            object.__setattr__(self, name, readonly(getattr(self, name), dtype=dtype))
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} has wrong length")
        if self.census_year is None:
            return
        if abs(self.ef.sum() - 100.0) > 1e-9:
            raise ValueError(f"EF must sum to 100, got {self.ef.sum()!r}")
        defined = ~np.isnan(self.ai)
        if (self.ai[defined] < 0).any():
            raise ValueError("AI must be nonnegative")
        if ((self.ai[defined] == 0) != (self.ef[defined] == 0)).any():
            raise ValueError("AI must be zero exactly where EF is zero")
        if defined[self.n5 == 0].any():
            raise ValueError("AI must be undefined (NaN) where n5 is zero")

    def __len__(self) -> int:
        return len(self.journal_ids)

    def metric(self, name: str) -> np.ndarray:
        return getattr(self, resolve_metric(name))


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Diagnostics for the identity EF = scale * AI * n5.

    ``scale`` is the per-journal estimate EF / (AI * n5); by construction it
    equals 100 / total_n5 for every eligible journal, so its relative spread
    is a correctness probe.  ``citation_log_residual`` holds the analogous
    log(TC) - log(IF * n5) terms, which genuinely vary across journals: the
    citation-count side of the decomposition is only approximate.
    """

    journal_ids: tuple[str, ...]
    scale: np.ndarray                  # NaN where ineligible
    scale_spread: float                # (max - min) / mean over eligible
    citation_log_residual: np.ndarray  # NaN where TC or IF is unusable
    citation_log_residual_spread: float


# ---------------------------------------------------------------------------
# pipeline operations
# ---------------------------------------------------------------------------

def article_vector(table: JournalTable, census_year: int, window: int) -> np.ndarray:
    """Per-journal share of all articles published in the window (sums to 1)."""
    counts = table.article_counts(census_year, window).astype(float)
    total = counts.sum()
    if total <= 0:
        raise DegenerateDataError(
            f"no journal published any article in [{census_year - window}, {census_year - 1}]")
    return readonly(counts / total)


def normalize_columns(z: CitationMatrix) -> tuple[CitationMatrix, np.ndarray]:
    """Column-normalize a citation matrix.

    Returns ``(H, dangling)`` where each non-empty column of ``H`` sums to 1
    and ``dangling`` lists the indices of all-zero columns (journals that
    gave no in-window citations), which are left empty.
    """
    col_sums = np.bincount(z.col, weights=z.value, minlength=len(z.ids))
    dangling = np.flatnonzero(col_sums == 0)
    inv = np.zeros(len(z.ids))
    np.divide(1.0, col_sums, out=inv, where=col_sums > 0)
    return replace(z, value=z.value * inv[z.col]), dangling


def power_iterate(h: CitationMatrix, dangling: np.ndarray, a: np.ndarray,
                  alpha: float = DEFAULT_ALPHA, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> tuple[np.ndarray, SolverReport]:
    """Damped fixed-point iteration for the journal weight vector.

    Starting from the article vector ``a``, iterates

        pi <- alpha * (H @ pi + a * sum(pi[dangling])) + (1 - alpha) * a

    until the L1 change drops to ``tol``.  Returns the stationary vector
    (a probability distribution) and a SolverReport with the residual log.

    Raises ConvergenceError (carrying the last residual) if ``max_iter``
    iterations are not enough.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    a = np.asarray(a, dtype=float)
    if abs(a.sum() - 1.0) > 1e-9:
        raise ValueError("article vector must sum to 1")
    # sized by h, so an ``a`` of the wrong length fails in ``h @ pi`` with ValueError
    is_dangling = np.zeros(len(h.ids), dtype=bool)
    is_dangling[dangling] = True
    pi = a.copy()
    residuals: list[float] = []
    for iteration in range(1, max_iter + 1):
        nxt = alpha * (h @ pi + a * pi[is_dangling].sum()) + (1.0 - alpha) * a
        residual = float(np.abs(nxt - pi).sum())
        residuals.append(residual)
        pi = nxt
        if residual <= tol:
            report = SolverReport(iteration, residual, alpha, tol,
                                  int(len(dangling)), tuple(residuals))
            pi.setflags(write=False)
            return pi, report
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (residual {residuals[-1]:.3e})",
        residual=residuals[-1])


def eigenfactor_scores(h: CitationMatrix, pi: np.ndarray) -> np.ndarray:
    """EF vector: in-window citation influence H @ pi, scaled to sum to 100.

    Dangling columns are empty in H, so they contribute nothing here.
    """
    s = h @ pi
    total = s.sum()
    if total <= 0:
        raise DegenerateDataError("corpus has no in-window citations at all")
    return readonly(100.0 * s / total)


def article_influence(ef: np.ndarray, a: np.ndarray) -> np.ndarray:
    """AI vector: 0.01 * EF / article share, NaN where the share is zero.

    The article-weighted mean of the defined entries is exactly 1.  A
    journal with no in-window articles but a positive EF means the corpus
    is corrupted (it received citations it could not have earned), which
    raises InconsistencyError rather than being silently repaired.
    """
    ef = np.asarray(ef, dtype=float)
    a = np.asarray(a, dtype=float)
    bad = (a == 0) & (ef > 0)
    if bad.any():
        raise InconsistencyError(
            f"{int(bad.sum())} journal(s) received citations but published no articles "
            f"in the window (indices {np.flatnonzero(bad).tolist()})")
    ai = np.full(len(ef), np.nan)
    pos = a > 0
    ai[pos] = 0.01 * ef[pos] / a[pos]
    return readonly(ai)


def impact_factor(ledger: CitationLedger, table: JournalTable, census_year: int,
                  exclude_self: bool = False) -> np.ndarray:
    """Two-year impact factor per journal; NaN where no two-year articles exist.

    Citations given in the census year to articles from the two preceding
    years, divided by the article count of those two years.  Self-citations
    are included by default (the convention this metric imitates).
    """
    cited, _, count = ledger.windowed(table, census_year, 2, exclude_self)
    cites = np.bincount(cited, weights=count, minlength=len(table))
    n2 = table.article_counts(census_year, 2).astype(float)
    result = np.full(len(table), np.nan)
    has_articles = n2 > 0
    result[has_articles] = cites[has_articles] / n2[has_articles]
    return readonly(result)


def total_citations(ledger: CitationLedger, table: JournalTable, census_year: int,
                    exclude_self: bool = False) -> np.ndarray:
    """Citations received in the census year, regardless of cited article age;
    a total past int64 raises ValidationError naming its journal."""
    cited, _, count = ledger.windowed(table, census_year, None, exclude_self)
    return _int64_sums(cited, count, len(table), lambda j, total: (
        f"journal {table.ids[j]!r} received {total} citations in {census_year}, "
        "more than a 64-bit integer holds"))


def decomposition_check(scores: MetricScores) -> DecompositionReport:
    """Probe the multiplicative structure linking the size-dependent and
    per-article metrics.

    Eligible journals are those with EF > 0, defined AI and n5 > 0; their
    ``scale`` estimates must agree to floating-point precision.  The TC side
    is reported for contrast: its per-journal log residuals spread widely
    because total citations also count citations to older articles.
    """
    eligible = (scores.ef > 0) & ~np.isnan(scores.ai) & (scores.n5 > 0)
    if not eligible.any():
        raise DegenerateDataError("no journal is eligible for the decomposition check")
    n = len(scores)
    scale = np.full(n, np.nan)
    scale[eligible] = scores.ef[eligible] / (scores.ai[eligible] * scores.n5[eligible])
    vals = scale[eligible]
    spread = float((vals.max() - vals.min()) / vals.mean())

    usable = ((scores.total_citations > 0) & ~np.isnan(scores.impact_factor)
              & (scores.impact_factor > 0) & (scores.n5 > 0))
    residual = np.full(n, np.nan)
    residual[usable] = (np.log(scores.total_citations[usable].astype(float))
                        - np.log(scores.impact_factor[usable] * scores.n5[usable]))
    res_vals = residual[usable]
    res_spread = float(res_vals.max() - res_vals.min()) if usable.any() else float("nan")
    return DecompositionReport(scores.journal_ids, readonly(scale), spread,
                               readonly(residual), res_spread)


def compute_metrics(table: JournalTable, ledger: CitationLedger, census_year: int, *,
                    window: int = 5, alpha: float = DEFAULT_ALPHA, tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER, exclude_self_influence: bool = True,
                    exclude_self_counts: bool = False) -> tuple[MetricScores, SolverReport]:
    """Full pipeline: ledger + table -> MetricScores for one census year.

    Self-citations are excluded from the EF/AI network and included in
    IF/TC by default; both policies are toggleable.
    """
    z = build_citation_matrix(ledger, table, census_year, window,
                              exclude_self=exclude_self_influence)
    a = article_vector(table, census_year, window)
    h, dangling = normalize_columns(z)
    pi, report = power_iterate(h, dangling, a, alpha=alpha, tol=tol, max_iter=max_iter)
    ef = eigenfactor_scores(h, pi)
    ai = article_influence(ef, a)
    scores = MetricScores(
        census_year=census_year,
        journal_ids=table.ids,
        ef=ef,
        ai=ai,
        impact_factor=impact_factor(ledger, table, census_year, exclude_self=exclude_self_counts),
        total_citations=total_citations(ledger, table, census_year,
                                        exclude_self=exclude_self_counts),
        n5=table.article_counts(census_year, window),
        n2=table.article_counts(census_year, 2),
    )
    return scores, report


# ---------------------------------------------------------------------------
# scores.csv
# ---------------------------------------------------------------------------

def _fmt_score(v: float) -> str:
    return "" if math.isnan(v) else f"{v:.6f}"


def write_scores_csv(scores: MetricScores) -> str:
    """scores.csv text; undefined AI/IF become empty fields."""
    return csv_text(SCORES_HEADER, (
        [jid, _fmt_score(scores.ef[i]), _fmt_score(scores.ai[i]),
         _fmt_score(scores.impact_factor[i]),
         int(scores.total_citations[i]), int(scores.n5[i]), int(scores.n2[i])]
        for i, jid in enumerate(scores.journal_ids)))


def read_scores_csv(source: str | TextIO) -> MetricScores:
    """Read a scores.csv file back as MetricScores with ``census_year`` None.

    The printed values are rounded, so the exact metric invariants are not
    re-checked; empty EF/AI/IF fields become NaN.  The count columns must
    hold nonnegative integers, and a journal_id may appear only once.
    """
    rdr = csv_reader(source, SCORES_HEADER, "scores.csv")
    ids: dict[str, None] = {}  # insertion-ordered, so a repeat is found in O(1)
    cols: dict[str, list[float | int]] = {name: [] for name in SCORES_HEADER[1:]}
    for row in rdr:
        if not row:
            continue
        line = rdr.line_num
        if len(row) != len(SCORES_HEADER):
            raise CsvFormatError(f"line {line}: expected {len(SCORES_HEADER)} columns, "
                                 f"got {len(row)}")
        if row[0] in ids:
            raise CsvFormatError(f"line {line}: duplicate journal_id {row[0]!r}")
        ids[row[0]] = None
        for name, cell in zip(SCORES_HEADER[1:4], row[1:4]):
            cell = cell.strip()
            try:
                cols[name].append(float(cell) if cell else float("nan"))
            except ValueError:
                raise CsvFormatError(f"line {line}: malformed {name} {cell!r}") from None
        for name, cell in zip(SCORES_HEADER[4:], row[4:]):
            cols[name].append(_int_field(cell.strip(), name, line, minimum=0))
    return MetricScores(None, tuple(ids), **cols)
