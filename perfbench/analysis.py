"""The analysis-paper pass: eigenrank's stats, spurious and report layers in process.

    python3 perfbench/analysis.py --scores S --journals J --seconds N \
        --trace 0|1 --result OUT.json

imports eigenrank (timed as set-up), then runs passes back to back for
``--seconds``; with ``--trace 1`` it then installs the layer spans and runs
traced passes for as long again.  The host probe of ``calibrate.py`` is
sampled before and after every pass.  Each pass reads ``scores.csv`` and
``journals.csv`` and runs the paper's comparisons at the CLI's default
sizes.  The result file holds every pass's wall time and, per operation,
its time, its error if it raised, and the sha256 of its output text.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

import calibrate
from tracing import Tracer

# the CLI defaults of `eigenrank simulate`
JOURNAL_SIZE_CVS = (1.785, 1.548, 1.910)  # AI, IF, n5
JOURNAL_SIZE_N, JOURNAL_SIZE_TRIALS = 7611, 100
BONES_CV, BONES_N, BONES_TRIALS = 0.1, 1000, 1000
LOGISTIC_R, LOGISTIC_X0, LOGISTIC_N, LOGISTIC_BURN_IN = 4.0, 0.2, 1_000_000, 1000
SIMULATION_SEED = 0
SPLIT_FIELD = "field-000"  # the generator gives every field label members


def run_pass(scores_path: Path, journals_path: Path) -> list[dict]:
    """One analysis pass; returns one record per operation, in order."""
    import numpy as np
    from eigenrank import corpus, metrics, report, spurious, stats

    ops: list[dict] = []
    state: dict = {}

    def op(name, fn, output=None):
        record = {"name": name, "error": None, "sha256": None}
        start = time.perf_counter()
        try:
            state[name] = fn()
        except Exception as exc:  # a failed operation is counted, the pass goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["s"] = time.perf_counter() - start
        if output is not None and record["error"] is None:
            record["output"] = output
            record["sha256"] = hashlib.sha256(state[name].encode()).hexdigest()
        ops.append(record)

    def spearman_text():
        scores = state["read_scores"]
        x, y = scores.metric("impact_factor"), scores.metric("ai")
        usable = np.isfinite(x) & np.isfinite(y)
        labels = [jid for jid, ok in zip(scores.journal_ids, usable) if ok]
        obs = corpus.PairedObservations(labels, x[usable], y[usable])
        return f"{stats.spearman(obs).rho:.12g}\n"

    def utest_text():
        ra = state["ratio"]
        members = set(state["read_journals"].members_of(SPLIT_FIELD))
        inside = [r for label, r in zip(ra.labels, ra.raw_ratios) if label in members]
        outside = [r for label, r in zip(ra.labels, ra.raw_ratios) if label not in members]
        return stats.format_utest_report(stats.mann_whitney_u(inside, outside),
                                         label_a=SPLIT_FIELD, label_b=f"not-{SPLIT_FIELD}")

    def simulation(kind):
        if kind == "journal-size":
            result = spurious.simulate_journal_sizes(
                *JOURNAL_SIZE_CVS, n_journals=JOURNAL_SIZE_N, trials=JOURNAL_SIZE_TRIALS,
                seed=SIMULATION_SEED)
            state["journal-size-result"] = result
        elif kind == "logistic":
            rho = spurious.logistic_map_correlation(LOGISTIC_R, LOGISTIC_X0, LOGISTIC_N,
                                                    LOGISTIC_BURN_IN)
            result = spurious.SimulationResult(trials=1, rho=[rho], mean_rho=rho, sd_rho=0.0,
                                               seed=SIMULATION_SEED)
        else:
            spec = spurious.lognormal_from_cv(BONES_CV)
            simulate = (spurious.simulate_ossuary if kind == "ossuary"
                        else spurious.simulate_yule_products)
            result = simulate(spec, spec, spec, BONES_N, BONES_TRIALS, SIMULATION_SEED)
        return spurious.write_simulation_csv(result)

    spec = report.FigureSpec()
    op("read_scores", lambda: metrics.read_scores_csv(scores_path.read_text(encoding="utf-8")))
    op("read_journals", lambda: corpus.parse_journal_metadata(
        journals_path.read_text(encoding="utf-8")))
    for log in (False, True):
        name = "correlations-log.csv" if log else "correlations.csv"
        op(name, lambda log=log: stats.write_correlations_csv(stats.per_field_correlations(
            state["read_scores"], state["read_journals"], "impact_factor", "ai", log=log)),
           output=name)
    op("spearman.txt", spearman_text, output="spearman.txt")
    op("ratio", lambda: stats.ratio_analysis(
        state["read_scores"].metric("ef"), state["read_scores"].metric("total_citations"),
        state["read_scores"].journal_ids))
    op("utest.txt", utest_text, output="utest.txt")
    op("rank_comparison", lambda: report.rank_comparison(state["read_scores"], "tc", "ef"))
    op("slopegraph.svg", lambda: report.render_slopegraph(state["rank_comparison"], spec),
       output="slopegraph.svg")
    op("cardinal.svg", lambda: report.render_cardinal_plot(state["rank_comparison"], spec, 10),
       output="cardinal.svg")
    op("ratio.svg", lambda: report.render_ratio_plot(state["ratio"], spec), output="ratio.svg")
    for kind in ("journal-size", "ossuary", "yule", "logistic"):
        op(f"{kind}.csv", lambda kind=kind: simulation(kind), output=f"{kind}.csv")
    op("histogram.svg", lambda: report.render_histogram(
        state["journal-size-result"].rho, 20, spec), output="histogram.svg")
    return ops


def _passes(args, seconds: float, tracer: Tracer | None) -> list[dict]:
    passes = []
    deadline = time.perf_counter() + seconds
    before = calibrate.samples()
    while not passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        ops = run_pass(args.scores, args.journals)
        wall = time.perf_counter() - start
        after = calibrate.samples()
        record = {"wall_s": wall, "ops": ops, "probe_ms": before + after}
        if tracer is not None:
            record["trace"] = tracer.take()
        passes.append(record)
        before = after
    return passes


def main() -> None:
    ap = argparse.ArgumentParser(description="analysis-paper passes")
    ap.add_argument("--scores", type=Path, required=True)
    ap.add_argument("--journals", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    with calibrate.Timer() as imports:
        import eigenrank  # noqa: F401  -- set-up: imports are not part of a pass
    result = {"import_s": imports.seconds}
    result["untraced"] = _passes(args, args.seconds, None)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        result["traced"] = _passes(args, args.seconds, tracer)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
