"""eigenrank: citation-network influence metrics and correlation diagnostics.

The package computes Eigenfactor-style journal scores from dated citation
data, provides the correlation/ratio/rank-test machinery needed to compare
such metrics honestly, simulates the classical spurious-correlation
constructions that make naive comparisons misleading, and renders
deterministic SVG rank-comparison figures.  Each public name is imported
from its module on first use (PEP 562): ``import eigenrank`` alone loads no module.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {name: module for module, names in {
    "corpus": "CitationLedger CitationMatrix JournalTable build_citation_matrix "
              "parse_citation_edges parse_journal_metadata write_citation_edges "
              "write_journal_metadata",
    "errors": "ConvergenceError CsvFormatError DataError DegenerateDataError DomainError "
              "EigenrankError InconsistencyError NumericalError UndefinedCorrelationError "
              "ValidationError",
    "metrics": "DecompositionReport MetricScores SolverReport article_influence article_vector "
               "compute_metrics decomposition_check eigenfactor_scores impact_factor "
               "normalize_columns power_iterate read_scores_csv resolve_metric total_citations "
               "write_scores_csv",
    "report": "FigureSpec RankComparison rank_comparison rank_items render_cardinal_plot "
              "render_histogram render_ratio_plot render_slopegraph",
    "spurious": "DistributionSpec SimulationResult lognormal_from_cv logistic_map_correlation "
                "simulate_journal_sizes simulate_ossuary simulate_yule_products spec_from_cv",
    "stats": "CorrelationResult FieldCorrelations PairedObservations RatioAnalysis UTestResult "
             "bigmac_csv bigmac_fixture coefficient_of_variation mann_whitney_u pearson pearson_r "
             "per_field_correlations ratio_analysis spearman tercile_median_ratio",
}.items() for name in names.split()}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
