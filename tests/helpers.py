"""Shared test oracles and factories.

Everything here recomputes results through an independent route (dense
linear algebra, brute-force enumeration) so the library's sparse/iterative
paths are checked against genuinely different code.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.stats import rankdata

from eigenrank import (CitationLedger, CitationRecord, JournalEntry, JournalTable,
                       MetricScores)


def _articles_between(entry, first_year, end_year):
    """Articles ``entry`` published in ``first_year <= year < end_year``."""
    return sum(c for y, c in entry.articles_by_year.items() if first_year <= y < end_year)


def dense_reference_scores(table, ledger, census_year, window=5, alpha=0.85,
                           exclude_self=True):
    """Dense-path pi/EF/AI from first principles (direct linear solve)."""
    ids = list(table.ids)
    n = len(ids)
    pos = {j: i for i, j in enumerate(ids)}
    z = np.zeros((n, n))
    lo = census_year - window
    for r in ledger:
        if r.citing_year != census_year or not (lo <= r.cited_year < census_year):
            continue
        if exclude_self and r.citing_id == r.cited_id:
            continue
        z[pos[r.cited_id], pos[r.citing_id]] += r.count
    counts = np.array([_articles_between(e, lo, census_year) for e in table], float)
    a = counts / counts.sum()
    col = z.sum(axis=0)
    h = np.divide(z, col, out=np.zeros_like(z), where=col > 0)
    dangling = (col == 0).astype(float)
    m = h + np.outer(a, dangling)
    pi = np.linalg.solve(np.eye(n) - alpha * m, (1.0 - alpha) * a)
    s = h @ pi
    ef = 100.0 * s / s.sum()
    ai = np.where(a > 0, 0.01 * ef / a, np.nan)
    return pi, ef, ai


def reference_counts(ledger, table, census_year, window=5, exclude_self=True):
    """Windowed matrix entries, IF and TC from one plain loop over the records.

    Returns ``(matrix, impact_factor, total_citations)``: ``matrix`` maps
    (cited_id, citing_id) to the summed in-window count, as
    ``CitationMatrix.to_dict`` does; the two arrays follow table order.
    """
    pos = {j: i for i, j in enumerate(table.ids)}
    n = len(pos)
    matrix = {}
    cites = np.zeros(n)
    totals = np.zeros(n, dtype=np.int64)
    lo = census_year - window
    for r in ledger:
        if r.citing_year != census_year or (exclude_self and r.citing_id == r.cited_id):
            continue
        totals[pos[r.cited_id]] += r.count
        if r.cited_year in (census_year - 1, census_year - 2):
            cites[pos[r.cited_id]] += r.count
        if lo <= r.cited_year < census_year:
            key = (r.cited_id, r.citing_id)
            matrix[key] = matrix.get(key, 0.0) + float(r.count)
    n2 = np.array([_articles_between(e, census_year - 2, census_year) for e in table], float)
    impact = np.full(n, np.nan)
    impact[n2 > 0] = cites[n2 > 0] / n2[n2 > 0]
    return matrix, impact, totals


def random_corpus(rng, n_journals=None, census_year=2006, window=5):
    """Small random corpus; every journal publishes, network non-empty."""
    n = int(n_journals) if n_journals is not None else int(rng.integers(2, 7))
    ids = [f"J{k:02d}" for k in range(n)]
    entries = []
    for jid in ids:
        years = {y: int(rng.integers(1, 40)) for y in range(census_year - window, census_year)}
        fields = frozenset(f for f in ("alpha", "beta") if rng.random() < 0.5)
        entries.append(JournalEntry(jid, f"Journal {jid}", fields, years))
    table = JournalTable(tuple(entries))
    records = []
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.6:
                records.append(CitationRecord(
                    ids[i], ids[j], census_year,
                    int(rng.integers(census_year - window, census_year)),
                    int(rng.integers(1, 20))))
    if not any(r.citing_id != r.cited_id for r in records):
        records.append(CitationRecord(ids[0], ids[-1], census_year, census_year - 1, 3))
    # noise rows the window filter must ignore
    records.append(CitationRecord(ids[0], ids[-1], census_year - 1, census_year - 2, 5))
    records.append(CitationRecord(ids[0], ids[-1], census_year, census_year - window - 1, 4))
    return table, CitationLedger(tuple(records))


def exact_mwu_two_sided_p(a, b) -> float:
    """Exact permutation p: enumerate every placement of group a's ranks."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    pooled = np.concatenate([a, b])
    n1, n = len(a), len(pooled)
    ranks = rankdata(pooled, method="average")
    mu = n1 * (n - n1) / 2.0

    def u_of(positions) -> float:
        return float(ranks[list(positions)].sum() - n1 * (n1 + 1) / 2.0)

    u_obs = u_of(range(n1))
    hits = total = 0
    for positions in combinations(range(n), n1):
        total += 1
        if abs(u_of(positions) - mu) >= abs(u_obs - mu) - 1e-12:
            hits += 1
    return hits / total


def score_table(journal_ids, **columns) -> MetricScores:
    """Read-back style MetricScores (no census year) out of raw columns.

    Columns use canonical metric names; a missing float column is all NaN,
    a missing count column all 0.
    """
    n = len(journal_ids)
    filled = {name: np.full(n, np.nan) for name in ("ef", "ai", "impact_factor")}
    filled.update({name: np.zeros(n, np.int64) for name in ("total_citations", "n5", "n2")})
    return MetricScores(None, tuple(journal_ids), **{**filled, **columns})


def log_variance_share(cv1: float, cv2: float, cv3: float) -> float:
    """Correlation of (log z1 + log x3, log z2 + log x3) for independent
    lognormals calibrated to the given coefficients of variation."""
    s1, s2, s3 = (math.log1p(c * c) for c in (cv1, cv2, cv3))
    return s3 / math.sqrt((s1 + s3) * (s2 + s3))
