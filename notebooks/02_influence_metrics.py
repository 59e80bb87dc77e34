"""Computing journal influence scores on a synthetic corpus.
=========================================================

Builds a random citation corpus, runs the damped fixed-point iteration,
and inspects the metric vectors and their exact multiplicative structure:
total influence factors into (constant) x (per-article influence) x
(article count), so comparing total-influence with total-citation counts
smuggles the article count onto both sides.
"""

import numpy as np

from eigenrank import (CitationLedger, JournalTable, article_vector, compute_metrics,
                       decomposition_check, write_scores_csv)

rng = np.random.default_rng(42)
CENSUS = 2006

# a dozen journals with wildly different sizes, log-uniform between ~5 and ~5000;
# the table holds one (journal, year, articles) row per journal and year
ids = [f"J{k:02d}" for k in range(12)]
rows = []
for j in range(len(ids)):
    per_year = int(np.exp(rng.uniform(np.log(1), np.log(1000))))
    rows += [(j, y, max(1, per_year + int(rng.integers(-3, 4))))
             for y in range(CENSUS - 5, CENSUS)]
journal, year, articles = zip(*rows)
table = JournalTable(ids, [f"Journal {jid}" for jid in ids], [{"demo"}] * len(ids),
                     journal, year, articles)

# big journals attract more citations; everyone cites everyone occasionally.
# Each ledger record is a (citing, cited) pair of positions in ids with its
# citing year, cited year and count
counts = table.article_counts(CENSUS, 5)
records = []
for i in range(len(ids)):
    for j in range(len(ids)):
        if i == j or rng.random() < 0.3:
            continue
        weight = 1 + rng.poisson(0.02 * counts[j])
        records.append((i, j, CENSUS, int(rng.integers(CENSUS - 5, CENSUS)), int(weight)))
ledger = CitationLedger(ids, *zip(*records))

scores, solver = compute_metrics(table, ledger, CENSUS)
print(f"converged in {solver.iterations} iterations "
      f"(final residual {solver.final_residual:.2e}, "
      f"{solver.dangling_count} dangling journals)")

print("\nper-journal scores:")
print(write_scores_csv(scores))

print(f"EF sums to {scores.ef.sum():.12f}")
share = article_vector(table, CENSUS, 5)
print(f"article-weighted mean AI = {float(share @ scores.ai):.12f}")

# the factorization is exact on the influence side ...
rep = decomposition_check(scores)
print(f"\nEF / (AI * n5) spread across journals: {rep.scale_spread:.2e}")
print(f"   (every journal gives {100.0 / counts.sum():.6g} = 100 / total articles)")

# ... but only approximate on the citation-count side
residuals = rep.citation_log_residual[~np.isnan(rep.citation_log_residual)]
print(f"log(TC) - log(IF * n5) ranges over {residuals.min():.3f} .. "
      f"{residuals.max():.3f}: total citations are not a clean product")
