"""eigenrank benchmark: end-to-end metrics, and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The code under test is ``src/`` on
``PYTHONPATH``; CLI calls run as ``python -m eigenrank.cli``.  Load is a
closed loop with one client: each call starts only after the previous one
returned, with no threads and no parallel processes.

Workloads (see README.md in this directory for why each exists):

* ``cli-bundled``    -- every subcommand on the bundled ``tests/data`` corpus;
* ``compute-paper``  -- ``compute --census-year 2006`` on a seeded corpus of
  7,611 journals and 10^6 citation rows;
* ``analysis-paper`` -- the stats, spurious and report layers in one process
  on a ``scores.csv`` of 7,611 journals.

Times are calibrated to a reference host speed: a fixed probe
(``calibrate.py``) is sampled just before, during and just after every
measured call and set-up, on the one CPU this process and its children are
pinned to, and each time is scaled by the reference probe time over the
median of its samples.  The uncalibrated pass times are printed in ``#``
lines.

Every call must exit 0 and every output must pass its checks (scores.csv
invariants, byte-identical repeats, traced equal to untraced, and the
sha256 digests in ``golden.json``).  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402

BUNDLED = ROOT / "tests" / "data"
SETUP_REPEATS = 3  # set-ups per run, reported as their median
IMPORT_PROBES = 5
SAMPLE_INTERVAL_S = 0.2  # host probe samples while a measured child runs
# one BLAS thread: the load is one client, and the calls share the runner's CPU
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}


class SetupError(Exception):
    """The workload could not be prepared; no result can be measured."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_scores(path: Path) -> str | None:
    """Problems with a scores.csv: EF must sum to 100 and the article-weighted
    mean AI must be 1, both within the six-decimal rounding of the file."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return "scores.csv has no journals"
    ef = sum(float(r["ef"]) for r in rows)
    if abs(ef - 100.0) > 5e-7 * len(rows) + 1e-9:
        return f"EF sums to {ef!r}"
    defined = [(float(r["ai"]), int(r["n5"])) for r in rows if r["ai"]]
    weighted = sum(ai * n5 for ai, n5 in defined) / sum(n5 for _, n5 in defined)
    if abs(weighted - 1.0) > 5e-7 + 1e-9:
        return f"article-weighted mean AI is {weighted!r}"
    return None


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{name}: {problem}")


class Digests:
    """Expected output bytes: golden ones, else the first digest seen in this run."""

    def __init__(self, golden: dict[str, str] | None = None):
        self.expected = dict(golden or {})

    def check(self, name: str, digest: str) -> str | None:
        want = self.expected.setdefault(name, digest)
        return None if want == digest else f"sha256 {digest[:16]} differs from {want[:16]}"


def golden_digests(golden: dict, workload: str, seed: int) -> dict[str, str]:
    """Digests fixed for every seed, plus those recorded for the golden seed."""
    out = dict(golden["every_seed"].get(workload, {}))
    if seed == golden["seed"]:
        out.update(golden["at_seed"].get(workload, {}))
    return out


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_process(cmd: list[str], cwd: Path, probes: list[float] | None = None) -> dict:
    """Run one child to completion; its wall time, exit code and peak RSS.

    With ``probes``, the host probe is sampled into it while the child runs.
    """
    with open(cwd / "child.out", "wb") as out, open(cwd / "child.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdout=out, stderr=err)
        if probes is not None:
            # the pidfd turns readable when the child exits, so the end of the
            # call is seen at once, not at the next sample
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], SAMPLE_INTERVAL_S)[0]:
                    probes.append(calibrate.probe_ms())
            finally:
                os.close(pidfd)
        # wait4 gives this child's own rusage, so set-up children do not leak
        # into the peak RSS of the measured ones.  A child's peak RSS starts
        # from this process's own peak, so this process stays small: the
        # corpus is generated in a child too.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024,
            "stdout": (cwd / "child.out").read_text(encoding="utf-8", errors="replace"),
            "stderr": (cwd / "child.err").read_text(encoding="utf-8", errors="replace")}


def checked_call(call: tuple, cwd: Path, digests: Digests, tally: Tally,
                 spans: Path | None = None, ledger_memory: bool = False,
                 probes: list[float] | None = None) -> dict:
    """One eigenrank CLI call, checked: exit code 0 and every output it names.

    Untraced calls run as ``python -m eigenrank.cli``; with ``spans`` they
    run through ``traced_cli.py``, which writes the call's spans there.
    """
    args, outputs = call
    if spans is None:
        cmd = [sys.executable, "-m", "eigenrank.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
               *(["--ledger-memory"] if ledger_memory else []), "--", *args]
    for name in outputs:
        (cwd / name).unlink(missing_ok=True)
    result = run_process(cmd, cwd, probes)
    problem = None
    if result["exit"] != 0:
        problem = f"exit {result['exit']}: {result['stderr'].strip()[-300:]}"
    for name in outputs if problem is None else ():
        path = cwd / name
        problem = digests.check(name, sha256(path)) if path.exists() else "not written"
        if problem is None and name == "scores.csv":
            problem = check_scores(path)
        if problem:
            problem = f"{name}: {problem}"
            break
    tally.record(" ".join(args[:2]), problem)
    return result


def cli_passes(calls: list[tuple], cwd: Path, seconds: float, digests: Digests,
               tally: Tally, traced: bool) -> list[dict]:
    """Passes over ``calls`` until ``seconds`` have gone by (at least one).

    The host probe is sampled between and during calls, and each call's
    time is calibrated by the samples just before, during and just after it.
    """
    passes = []
    spans = cwd / "spans.json" if traced else None
    deadline = time.perf_counter() + seconds
    before = calibrate.samples()
    while not passes or time.perf_counter() < deadline:
        results, traces, times, probes = [], [], [], []
        for call in calls:
            during = []
            results.append(checked_call(call, cwd, digests, tally, spans, probes=during))
            after = calibrate.samples()
            times.append(calibrate.calibrated(results[-1]["wall_s"], before + during + after))
            probes += during + after
            before = after
            if traced and spans.exists():
                traces.append(json.loads(spans.read_text(encoding="utf-8")))
                spans.unlink()
        record = {"wall_s": sum(times), "raw_wall_s": sum(r["wall_s"] for r in results),
                  "calls": times, "rss_mb": max(r["rss_mb"] for r in results),
                  "probe_ms": probes}
        if traced:
            record["summary"] = tracing.summarize(traces)
        passes.append(record)
    return passes


def bundled_calls() -> list[tuple]:
    """cli-bundled: every subcommand once, at its default settings.

    ``--top-k`` is the one exception: its default of 10 exceeds the six
    bundled journals.
    """
    journals, citations = str(BUNDLED / "journals.csv"), str(BUNDLED / "citations.csv")
    return [
        (["compute", "--journals", journals, "--citations", citations,
          "--census-year", "2006"], ["scores.csv"]),
        (["correlate", "--scores", "scores.csv", "--by-field", "--journals", journals],
         ["correlations.csv"]),
        (["ratio", "--scores", "scores.csv", "--group-by", "public-health",
          "--journals", journals, "--test", "mann-whitney"], ["ratio.csv", "utest.txt"]),
        (["simulate", "journal-size"], ["simulation.csv", "summary.txt"]),
        (["plot", "slopegraph", "--scores", "scores.csv", "--out", "slopegraph.svg"],
         ["slopegraph.svg"]),
        (["plot", "cardinal", "--scores", "scores.csv", "--top-k", "5",
          "--out", "cardinal.svg"],
         ["cardinal.svg"]),
        (["plot", "histogram", "--values", "simulation.csv", "--out", "histogram.svg"],
         ["histogram.svg"]),
        (["plot", "ratio", "--scores", "scores.csv", "--out", "ratio.svg"], ["ratio.svg"]),
        (["bigmac"], []),
    ]


def paper_compute_call(corpus_dir: Path, census_year: int) -> tuple:
    return (["compute", "--journals", str(corpus_dir / "journals.csv"),
             "--citations", str(corpus_dir / "citations.csv"),
             "--census-year", str(census_year)], ["scores.csv"])


def make_corpus(corpus_dir: Path, seed: int, corpus_digests: Digests,
                probes: list[float]) -> dict:
    """Write the seeded paper-scale corpus; every repeat in a run must give
    the same bytes."""
    child = run_process([sys.executable, str(HERE / "gencorpus.py"), "--seed", str(seed),
                         "--out", str(corpus_dir)], corpus_dir.parent, probes)
    if child["exit"] != 0:
        raise SetupError(f"corpus generator exited {child['exit']}: {child['stderr'][-500:]}")
    stats = json.loads(child["stdout"])
    for name in ("journals.csv", "citations.csv"):
        problem = corpus_digests.check(name, sha256(corpus_dir / name))
        if problem:
            raise SetupError(f"generator is not deterministic: {name} {problem}")
    stats["bytes"] = stats["journals.csv_bytes"] + stats["citations.csv_bytes"]
    return stats


# ---------------------------------------------------------------------------
# workloads: each returns the raw measurements of one run
# ---------------------------------------------------------------------------

def phase_seconds(seconds: float, trace: bool) -> float:
    """A traced run measures untraced, then traced passes: half the time each."""
    return seconds / 2 if trace else seconds


def run_cli_workload(name: str, work: Path, seed: int, seconds: float, trace: bool,
                     golden: dict, tally: Tally) -> dict:
    corpus_dir, warm, cwd = work / "corpus", work / "warm-up", work / "calls"
    warm.mkdir()
    cwd.mkdir()
    corpus_digests = Digests()
    warm_digests = Digests(golden_digests(golden, "cli-bundled", seed))
    setups = []
    for _ in range(SETUP_REPEATS):
        with calibrate.Timer() as setup:
            if name == "compute-paper":
                inputs = make_corpus(corpus_dir, seed, corpus_digests, setup.probes)
            # warm-up: one small call fills the page cache and the bytecode cache
            checked_call(bundled_calls()[0], warm, warm_digests, tally, probes=setup.probes)
        setups.append(setup.seconds)
    if name == "cli-bundled":
        calls = bundled_calls()
        # fixed bundled data: every seed gives the same inputs
        journals = (BUNDLED / "journals.csv").read_bytes()
        citations = (BUNDLED / "citations.csv").read_bytes()
        inputs = {"seed": seed,
                  "journals": len({ln.split(b",")[0] for ln in journals.splitlines()[1:]}),
                  "rows": len(citations.splitlines()) - 1,
                  "bytes": len(journals) + len(citations)}
    else:
        calls = [paper_compute_call(corpus_dir, inputs["census_year"])]
    digests = Digests(golden_digests(golden, name, seed))
    run = {"setup_s": setups, "inputs": inputs, "rows_per_pass": inputs["rows"],
           "untraced": cli_passes(calls, cwd, phase_seconds(seconds, trace), digests, tally,
                                  traced=False),
           "digests": digests.expected}
    if trace:
        run["traced"] = cli_passes(calls, cwd, phase_seconds(seconds, trace), digests, tally,
                                   traced=True)
        # ledger memory: one more traced compute under tracemalloc, not timed
        spans = cwd / "spans.json"
        checked_call(calls[0], cwd, digests, tally, spans, ledger_memory=True)
        if spans.exists():
            run["ledger_mb"] = json.loads(spans.read_text(encoding="utf-8"))["counts"].get(
                "corpus.ledger_mb", 0.0)
    return run


def run_analysis_workload(work: Path, seed: int, seconds: float, trace: bool,
                          golden: dict, tally: Tally) -> dict:
    corpus_dir, cwd = work / "corpus", work / "calls"
    cwd.mkdir()
    corpus_digests = Digests()
    digests = Digests(golden_digests(golden, "analysis-paper", seed))
    generations = []
    for _ in range(SETUP_REPEATS):
        with calibrate.Timer() as generation:
            inputs = make_corpus(corpus_dir, seed, corpus_digests, generation.probes)
        generations.append(generation.seconds)
    # the paper-scale scores.csv is computed once per run, from compute-paper's
    # corpus: it is the longest part of set-up and needs no repeat
    with calibrate.Timer() as compute:
        checked_call(paper_compute_call(corpus_dir, inputs["census_year"]), cwd, digests, tally,
                     probes=compute.probes)
    scores = cwd / "scores.csv"
    if not scores.exists():
        raise SetupError("compute wrote no scores.csv: " + "; ".join(tally.failures))
    inputs["scores_rows"] = len(scores.read_bytes().splitlines()) - 1

    result_path = work / "analysis.json"
    child = run_process([sys.executable, str(HERE / "analysis.py"), "--scores", str(scores),
                         "--journals", str(corpus_dir / "journals.csv"),
                         "--seconds", str(phase_seconds(seconds, trace)),
                         "--trace", str(int(trace)), "--result", str(result_path)], work)
    if child["exit"] != 0:
        raise SetupError(f"analysis worker exited {child['exit']}: {child['stderr'][-500:]}")
    data = json.loads(result_path.read_text(encoding="utf-8"))

    def passes(records: list[dict], traced: bool) -> list[dict]:
        out = []
        for record in records:
            for op in record["ops"]:
                problem = op["error"]
                if problem is None and op.get("output"):
                    problem = digests.check(op["output"], op["sha256"])
                tally.record(op["name"], problem)
            # the in-process client's call is one whole pass: the library calls
            # within it differ too much in size for a median to be steady
            wall = calibrate.calibrated(record["wall_s"], record["probe_ms"])
            entry = {"wall_s": wall, "raw_wall_s": record["wall_s"], "calls": [wall],
                     "rss_mb": child["rss_mb"], "probe_ms": record["probe_ms"]}
            if traced:
                entry["summary"] = tracing.summarize([record["trace"]])
            out.append(entry)
        return out

    # a set-up is one corpus generation, plus the one scores.csv compute and
    # the worker's imports, which each happen once per run
    once = compute.seconds + data["import_s"]
    run = {"setup_s": [g + once for g in generations], "inputs": inputs,
           "rows_per_pass": inputs["scores_rows"],
           "untraced": passes(data["untraced"], traced=False), "digests": digests.expected}
    if trace:
        run["traced"] = passes(data["traced"], traced=True)
    return run


def import_probes(work: Path) -> dict:
    """Fresh-interpreter floor and ``import eigenrank.cli`` cost, medians."""
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(run_process([sys.executable, "-c", "pass"], work)["wall_s"])
        imported.append(run_process([sys.executable, "-c", "import eigenrank.cli"],
                                    work)["wall_s"])
    floor = statistics.median(bare)
    return {"interpreter_s": floor, "import_s": statistics.median(imported) - floor}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(run: dict, tally: Tally) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, sample count), from untraced passes."""
    passes = run["untraced"]
    wall = statistics.median(p["wall_s"] for p in passes)
    # every pass makes the same calls in the same order; a call's typical time
    # is its median over passes, and call_p50_s is the median of those, which
    # does not jump between kinds of call as a median over all calls would
    per_kind = [statistics.median(times) for times in zip(*(p["calls"] for p in passes))]
    return {
        "setup_s": (statistics.median(run["setup_s"]), len(run["setup_s"])),
        "wall_s": (wall, len(passes)),
        "call_p50_s": (statistics.median(per_kind), sum(len(p["calls"]) for p in passes)),
        "rows_per_s": (run["rows_per_pass"] / wall, len(passes)),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), len(passes)),
        "ok_ops_ratio": (1.0 - len(tally.failures) / tally.attempted, tally.attempted),
    }


def per_layer(run: dict) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes of per-pass sums.

    A layer the workload never enters reads 0.
    """
    summaries = [p["summary"] for p in run["traced"]]

    def median(value) -> float:
        return statistics.median(value(s) for s in summaries)

    def field(span: str, key: str):
        return lambda s: s["layers"].get(span, {}).get(key, 0)

    def count(name: str):
        return lambda s: s["counts"].get(name, 0.0)

    def ratio(num, den):
        return lambda s: num(s) / den(s) if den(s) else 0.0

    timed = ("corpus.parse_citations", "corpus.parse_journals", "corpus.validate",
             "corpus.build_matrix", "metrics.compute", "metrics.impact_factor",
             "metrics.total_citations", "metrics.solve", "metrics.write_scores",
             "metrics.read_scores", "stats.per_field", "stats.spearman", "stats.ratio",
             "stats.mann_whitney", "spurious.journal_size", "spurious.ossuary", "spurious.yule",
             "spurious.logistic", "report.rank_comparison", "report.slopegraph",
             "report.cardinal", "report.histogram", "report.ratio_plot")
    # each span's inclusive time, as the metric named after it
    out = {f"{span}_s": median(field(span, "total_s")) for span in timed}
    for name in ("corpus.rows_in", "corpus.rows_windowed", "metrics.solver_iterations",
                 "stats.fields", "spurious.trials", "report.svg_bytes"):
        out[name] = median(count(name))

    def simulated(s):
        return sum(field(f"spurious.{k}", "total_s")(s) for k in ("journal_size", "ossuary", "yule"))

    def ledger_passes(s):
        return field("corpus.validate", "calls")(s) + count("corpus.ledger_iterations")(s)

    probes = run["probes"]
    untraced = statistics.median(p["wall_s"] for p in run["untraced"])
    traced = statistics.median(p["wall_s"] for p in run["traced"])
    out.update({
        "cli.interpreter_s": probes["interpreter_s"],
        "cli.import_s": probes["import_s"],
        "cli.self_s": median(field("cli.main", "self_s")),
        "corpus.ledger_mb": run.get("ledger_mb", 0.0),
        "corpus.validate_calls": median(field("corpus.validate", "calls")),
        "corpus.window_yield": median(ratio(count("corpus.rows_windowed"), count("corpus.rows_in"))),
        "metrics.compute_self_s": median(field("metrics.compute", "self_s")),
        "metrics.ledger_passes": median(ratio(ledger_passes, field("metrics.compute", "calls"))),
        "spurious.trial_us": median(ratio(simulated, count("spurious.trials"))) * 1e6,
        "trace.overhead_s": traced - untraced,
        "trace.coverage": statistics.median(
            p["summary"]["top_level_s"] / p["raw_wall_s"] for p in run["traced"]),
    })
    return out


def environment(nproc: int, cpu_pinned: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": nproc,
            "cpu": cpu, "pinned_to_cpu": cpu_pinned}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("cli-bundled", "compute-paper", "analysis-paper")


def main() -> int:
    ap = argparse.ArgumentParser(description="eigenrank benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "eigenrank" / "cli.py").is_file() or not BUNDLED.is_dir():
        print(f"error: {ROOT} holds no eigenrank source tree (src/eigenrank, tests/data)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

    nproc = len(os.sched_getaffinity(0))
    cpu_pinned = calibrate.pin_to_one_cpu()

    work_root = ROOT / ".perfbench-work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if args.workload == "analysis-paper":
            run = run_analysis_workload(work, args.seed, args.seconds, bool(args.trace),
                                        golden, tally)
        else:
            run = run_cli_workload(args.workload, work, args.seed, args.seconds,
                                   bool(args.trace), golden, tally)
        if args.trace:
            run["probes"] = import_probes(work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()

    print("# environment " + json.dumps(environment(nproc, cpu_pinned)))
    print("# inputs " + json.dumps(run["inputs"]))
    print("# outputs " + json.dumps(run["digests"], sort_keys=True))
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    print("# pass_wall_s " + " ".join(f"{p['wall_s']:.4g}" for p in run["untraced"])
          + "  (untraced passes, in order, calibrated)")
    print("# raw_pass_wall_s " + " ".join(f"{p['raw_wall_s']:.4g}" for p in run["untraced"])
          + f"  (the same passes, uncalibrated; median "
          f"{statistics.median(p['raw_wall_s'] for p in run['untraced']):.6g})")
    probes = [ms for p in run["untraced"] + run.get("traced", []) for ms in p["probe_ms"]]
    print(f"# host_probe_ms median={statistics.median(probes):.4g} min={min(probes):.4g} "
          f"max={max(probes):.4g} n={len(probes)} reference={calibrate.REFERENCE_MS:g}"
          "  (host probe samples of the measured calls)")
    e2e = end_to_end(run, tally)
    print(f"# {'failed_ops_ratio':<26} {len(tally.failures) / tally.attempted:<14.6g} "
          f"ratio  n={tally.attempted}")
    for m in spec["end_to_end"]:
        value, n = e2e[m["name"]]
        print(f"# {m['name']:<26} {value:<14.6g} {m['unit']:<6} n={n}")
    if args.trace:
        missing = sorted({name for p in run["traced"] for name in p["summary"]["missing"]})
        if missing:
            print("# missing-span " + " ".join(missing)
                  + "  (not in the package: their metrics read 0, untimed)")
        layers = per_layer(run)
        for m in spec["per_layer"]:
            print(f"# {m['name']:<26} {layers[m['name']]:<14.6g} {m['unit']}")
        chosen = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (e2e[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not tally.failures, "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
