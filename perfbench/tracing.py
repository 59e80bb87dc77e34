"""In-memory spans around eigenrank's public layer functions.

The benchmark measures the package from outside: ``Tracer.install`` swaps
each listed public function for a wrapper that records a span (name, start,
end, parent) and, for some, a count taken from the call's arguments or
result.  Spans stay in memory and are written out when the traced process
ends.  Nothing under ``src/`` is changed, and a wrapper returns exactly what
the wrapped function returns, so outputs are byte-identical.

Uses only the standard library, so importing it costs nothing measurable.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows_in(tracer, args, kwargs, result):
    tracer.counts["corpus.rows_in"] += len(result)


def _remember_window(tracer, args, kwargs, result):
    # build_citation_matrix(ledger, table, census_year, window, exclude_self);
    # windowed rows are counted after the traced call ends, outside every span
    bound = dict(zip(("ledger", "table", "census_year", "window"), args))
    bound.update(kwargs)
    tracer.windows.append((bound["ledger"], bound["census_year"], bound["window"]))


def _solver_iterations(tracer, args, kwargs, result):
    tracer.counts["metrics.solver_iterations"] += result[1].iterations


def _fields(tracer, args, kwargs, result):
    tracer.counts["stats.fields"] += len(result.by_field) + len(result.skipped)


def _trials(tracer, args, kwargs, result):
    tracer.counts["spurious.trials"] += result.trials


def _svg_bytes(tracer, args, kwargs, result):
    tracer.counts["report.svg_bytes"] += len(result.encode())


# (module, attribute, span name, count hook).  A name missing from the package
# is skipped and listed in ``Tracer.missing``, which the benchmark prints: its
# metric then reads 0 because nothing was timed, not because it got faster
LAYER_FUNCTIONS = (
    ("corpus", "parse_journal_metadata", "corpus.parse_journals", None),
    ("corpus", "parse_citation_edges", "corpus.parse_citations", _rows_in),
    ("corpus", "build_citation_matrix", "corpus.build_matrix", _remember_window),
    ("metrics", "compute_metrics", "metrics.compute", None),
    ("metrics", "article_vector", "metrics.article_vector", None),
    ("metrics", "normalize_columns", "metrics.normalize_columns", None),
    ("metrics", "power_iterate", "metrics.solve", _solver_iterations),
    ("metrics", "eigenfactor_scores", "metrics.eigenfactor_scores", None),
    ("metrics", "article_influence", "metrics.article_influence", None),
    ("metrics", "impact_factor", "metrics.impact_factor", None),
    ("metrics", "total_citations", "metrics.total_citations", None),
    ("metrics", "write_scores_csv", "metrics.write_scores", None),
    ("metrics", "read_scores_csv", "metrics.read_scores", None),
    ("stats", "per_field_correlations", "stats.per_field", _fields),
    ("stats", "spearman", "stats.spearman", None),
    ("stats", "ratio_analysis", "stats.ratio", None),
    ("stats", "mann_whitney_u", "stats.mann_whitney", None),
    ("spurious", "simulate_journal_sizes", "spurious.journal_size", _trials),
    ("spurious", "simulate_ossuary", "spurious.ossuary", _trials),
    ("spurious", "simulate_yule_products", "spurious.yule", _trials),
    ("spurious", "logistic_map_correlation", "spurious.logistic", None),
    ("report", "rank_comparison", "report.rank_comparison", None),
    ("report", "render_slopegraph", "report.slopegraph", _svg_bytes),
    ("report", "render_cardinal_plot", "report.cardinal", _svg_bytes),
    ("report", "render_histogram", "report.histogram", _svg_bytes),
    ("report", "render_ratio_plot", "report.ratio_plot", _svg_bytes),
)


class Tracer:
    """Spans and counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self.windows: list[tuple] = []
        self.missing: list[str] = []  # listed functions the package lacks
        self._stack: list[int] = []
        self._quiet = False

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every listed function wherever an eigenrank module holds it.

        Modules import some functions by name (``metrics`` holds its own
        reference to ``build_citation_matrix``), so every loaded eigenrank
        module attribute that is the original function is replaced.  Names
        the package lacks go to ``self.missing``.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "eigenrank" or n.startswith("eigenrank.")) and m is not None]
        for module_name, attr, span_name, hook in LAYER_FUNCTIONS:
            original = getattr(sys.modules.get(f"eigenrank.{module_name}"), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, span_name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        ledger_cls = getattr(sys.modules.get("eigenrank.corpus"), "CitationLedger", None)
        for attr in ("validate", "__iter__"):
            if not hasattr(ledger_cls, attr):
                self.missing.append(f"corpus.CitationLedger.{attr}")
        if hasattr(ledger_cls, "validate"):
            ledger_cls.validate = self.wrap(ledger_cls.validate, "corpus.validate")
        if hasattr(ledger_cls, "__iter__"):
            original_iter = ledger_cls.__iter__

            def counted_iter(ledger):
                if not self._quiet:
                    self.counts["corpus.ledger_iterations"] += 1
                return original_iter(ledger)
            ledger_cls.__iter__ = counted_iter

    def count_windows(self) -> None:
        """Count the windowed rows of every ledger given to build_citation_matrix.

        Call after the traced work: this pass is outside every span and is
        not counted as a ledger iteration.
        """
        self._quiet = True
        for ledger, census_year, window in self.windows:
            lo = census_year - window
            self.counts["corpus.rows_windowed"] += sum(
                1 for r in ledger if r.citing_year == census_year and lo <= r.cited_year < census_year)
        self.windows.clear()
        self._quiet = False

    def take(self) -> dict:
        """Return and clear what was recorded, as JSON-ready data."""
        out = {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}
        self.spans, self.counts = [], defaultdict(float)
        return out


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(processes: list[dict]) -> dict:
    """Merge the records of the processes of one pass.

    Returns ``{"layers": {name: {"calls", "total_s", "self_s"}},
    "counts": {...}, "top_level_s": ..., "missing": [...]}`` where
    ``top_level_s`` is the time covered by root spans and ``missing`` lists
    the functions no process could wrap.
    """
    layers: dict[str, dict] = {}
    counts: dict[str, float] = defaultdict(float)
    top_level = 0.0
    missing: set[str] = set()
    for record in processes:
        missing.update(record.get("missing", ()))
        spans = record["spans"]
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            if parent is None:
                top_level += end - start
        for key, value in record["counts"].items():
            counts[key] += value
    return {"layers": layers, "counts": dict(counts), "top_level_s": top_level,
            "missing": sorted(missing)}
