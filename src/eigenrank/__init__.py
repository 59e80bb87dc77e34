"""eigenrank: citation-network influence metrics and correlation diagnostics.

The package computes Eigenfactor-style journal scores from dated citation
data, provides the correlation/ratio/rank-test machinery needed to compare
such metrics honestly, simulates the classical spurious-correlation
constructions that make naive comparisons misleading, and renders
deterministic SVG rank-comparison figures.
"""

from .corpus import (CitationLedger, CitationMatrix, JournalTable, build_citation_matrix,
                     parse_citation_edges, parse_journal_metadata, write_citation_edges,
                     write_journal_metadata)
from .errors import (ConvergenceError, CsvFormatError, DataError, DegenerateDataError,
                     DomainError, EigenrankError, InconsistencyError, NumericalError,
                     UndefinedCorrelationError, ValidationError)
from .metrics import (DecompositionReport, MetricScores, SolverReport, article_influence,
                      article_vector, compute_metrics, decomposition_check,
                      eigenfactor_scores, impact_factor, normalize_columns, power_iterate,
                      read_scores_csv, resolve_metric, total_citations, write_scores_csv)
from .report import (FigureSpec, RankComparison, rank_comparison,
                     rank_items, render_cardinal_plot, render_histogram,
                     render_ratio_plot, render_slopegraph)
from .spurious import (DistributionSpec, SimulationResult, lognormal_from_cv,
                       logistic_map_correlation, simulate_journal_sizes,
                       simulate_ossuary, simulate_yule_products, spec_from_cv)
from .stats import (CorrelationResult, FieldCorrelations, PairedObservations, RatioAnalysis,
                    UTestResult, bigmac_csv, bigmac_fixture, coefficient_of_variation,
                    mann_whitney_u, pearson, pearson_r, per_field_correlations, ratio_analysis,
                    spearman, tercile_median_ratio)

__version__ = "0.1.0"
