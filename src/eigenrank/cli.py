"""Command-line interface.

Subcommands: ``compute`` (corpus -> scores.csv), ``correlate`` (scores ->
correlations.csv), ``ratio`` (ratio analysis and group tests), ``simulate``
(spurious-correlation constructions), ``plot`` (SVG figures) and ``bigmac``
(the embedded fixture's statistics), each importing the modules it runs
when called: at import this module loads only ``metrics`` of the library.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
failure (non-convergence, degenerate statistics).  A call that fails writes no
file and prints nothing to stdout.  Two outputs naming one file are a usage
error, and an output that is a directory or whose directory is missing a
data error, both found before the first write; only a write that fails
otherwise (a file that may not be written) can leave behind the files
written before it.

``EIGENRANK_SEED`` supplies a default simulation seed when ``--seed`` is
absent; an explicit flag wins.  ``--config PATH`` reads a key=value file
whose keys mirror the chosen subcommand's long flags; explicit flags
override config values.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

import numpy as np

from . import metrics
from ._util import FAMILIES, CsvRows, csv_text, utf8_error_line, write_text
from .errors import CsvFormatError, DataError, NumericalError, ValidationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "EIGENRANK_SEED"
# simulate's draws per trial when --n is absent
_DEFAULT_DRAWS = {"ossuary": 1000, "yule": 1000, "journal-size": 7611, "logistic": 1_000_000}


class _UsageError(Exception):
    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad flags; the documented usage exit is 1
    def error(self, message):
        raise _UsageError(message, self.format_usage())


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(
        prog="eigenrank",
        description="Citation-network influence metrics and correlation diagnostics.",
        epilog="Global option: --config PATH reads key=value defaults for the "
               f"chosen subcommand; {SEED_ENV_VAR} provides a default --seed.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    by_name: dict[str, _Parser] = {}

    p = by_name["compute"] = sub.add_parser(
        "compute", help="compute per-journal scores from journals.csv + citations.csv")
    p.add_argument("--journals", required=True, help="journals.csv path")
    p.add_argument("--citations", required=True, help="citations.csv path")
    p.add_argument("--census-year", type=int, required=True)
    p.add_argument("--window", type=int, default=5, help="citation window in years")
    p.add_argument("--alpha", type=float, default=metrics.DEFAULT_ALPHA,
                   help="damping factor of the fixed-point iteration")
    p.add_argument("--tol", type=float, default=metrics.DEFAULT_TOL,
                   help="L1 convergence tolerance")
    p.add_argument("--max-iter", type=int, default=metrics.DEFAULT_MAX_ITER)
    p.add_argument("--include-self-cites", action="store_true",
                   help="keep self-citations in the influence network")
    p.add_argument("--exclude-self-cites-counts", action="store_true",
                   help="drop self-citations from impact factor and total citations")
    p.add_argument("--out", default="scores.csv")

    p = by_name["correlate"] = sub.add_parser(
        "correlate", help="correlate two metrics from a scores.csv")
    p.add_argument("--scores", required=True)
    p.add_argument("--x", default="impact_factor", help="x metric name")
    p.add_argument("--y", default="ai", help="y metric name")
    p.add_argument("--log", action="store_true", help="correlate the logs")
    p.add_argument("--by-field", action="store_true",
                   help="one correlation per field label (needs --journals)")
    p.add_argument("--journals", help="journals.csv path for field memberships")
    p.add_argument("--out", default="correlations.csv")

    p = by_name["ratio"] = sub.add_parser(
        "ratio", help="ratio analysis of two metrics, optionally with a group test")
    p.add_argument("--scores", required=True)
    p.add_argument("--numerator", default="ef")
    p.add_argument("--denominator", default="total_citations")
    p.add_argument("--out", default="ratio.csv")
    p.add_argument("--group-by", metavar="FIELD",
                   help="split journals into members of FIELD vs the rest")
    p.add_argument("--journals", help="journals.csv path for field memberships")
    p.add_argument("--test", choices=["mann-whitney"],
                   help="significance test for the --group-by split")
    p.add_argument("--report", default="utest.txt", help="where to write the test report")

    p = by_name["simulate"] = sub.add_parser(
        "simulate", help="spurious-correlation constructions")
    p.add_argument("kind", choices=["ossuary", "yule", "journal-size", "logistic"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--n", type=int, default=None,
                   help="draws per trial (default depends on the kind)")
    p.add_argument("--family", choices=list(FAMILIES), default="lognormal")
    p.add_argument("--cv", type=float, default=0.1,
                   help="coefficient of variation for all ossuary/yule variables")
    p.add_argument("--femur-cv", type=float, default=None)
    p.add_argument("--tibia-cv", type=float, default=None)
    p.add_argument("--humerus-cv", type=float, default=None)
    p.add_argument("--z1-cv", type=float, default=None)
    p.add_argument("--z2-cv", type=float, default=None)
    p.add_argument("--x3-cv", type=float, default=None)
    p.add_argument("--ai-cv", type=float, default=1.785)
    p.add_argument("--if-cv", type=float, default=1.548)
    p.add_argument("--n5-cv", type=float, default=1.910)
    p.add_argument("--r", type=float, default=4.0, help="logistic-map parameter")
    p.add_argument("--x0", type=float, default=0.2, help="logistic-map start point")
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--out", default="simulation.csv")
    p.add_argument("--summary", default="summary.txt")

    p = by_name["plot"] = sub.add_parser("plot", help="render an SVG figure")
    p.add_argument("kind", choices=["slopegraph", "cardinal", "histogram", "ratio"])
    p.add_argument("--out", required=True, help="output .svg path")
    p.add_argument("--width", type=int, default=720)
    p.add_argument("--height", type=int, default=960)
    p.add_argument("--title", default="")
    p.add_argument("--scores", help="scores.csv (slopegraph, cardinal, ratio)")
    p.add_argument("--left", default="total_citations", help="left metric")
    p.add_argument("--right", default="ef", help="right metric")
    p.add_argument("--top-fraction", type=float, default=1.0,
                   help="slopegraph: show this share of the left ranking")
    p.add_argument("--top-k", type=int, help="cardinal: items shown (default 10, or all if fewer)")
    p.add_argument("--values", help="histogram: CSV file with the value column")
    p.add_argument("--column", default="rho", help="histogram: column to read")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--numerator", default="ef", help="ratio: numerator metric")
    p.add_argument("--denominator", default="total_citations")

    p = by_name["bigmac"] = sub.add_parser(
        "bigmac", help="statistics of the embedded burger-price/wage table")
    p.add_argument("--export", metavar="PATH", help="also write the table as CSV")

    return parser, by_name


# ---------------------------------------------------------------------------
# --config handling
# ---------------------------------------------------------------------------

def _extract_config_path(argv: list[str]) -> str | None:
    path = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise _UsageError("--config requires a path")
            path = argv[i + 1]
            del argv[i:i + 2]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            del argv[i]
        else:
            i += 1
    return path


def _coerce_config_value(action: argparse.Action, key: str, value: str):
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise _UsageError(f"config key {key!r} expects a boolean, got {value!r}")
    try:
        coerced = action.type(value) if action.type else value
    except ValueError:
        raise _UsageError(f"config key {key!r}: cannot parse {value!r}") from None
    if action.choices is not None and coerced not in action.choices:
        raise _UsageError(f"config key {key!r}: {value!r} not in {sorted(action.choices)}")
    return coerced


def _apply_config(argv: list[str], by_name: dict[str, _Parser]) -> None:
    path = _extract_config_path(argv)
    if path is None:
        return
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    sub = by_name.get(command or "")
    if sub is None:
        raise _UsageError("--config requires a recognized subcommand")
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _UsageError(f"{path}: cannot read config file: {exc.strerror}") from None
    line = utf8_error_line(data)
    if line is not None:
        raise _UsageError(f"{path}:{line}: not valid UTF-8")
    defaults = {}
    # the same encoding as the input files
    for lineno, raw in enumerate(data.decode("utf-8-sig").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = next((a for a in sub._actions if f"--{key}" in a.option_strings), None)
        if action is None:
            raise _UsageError(f"{path}:{lineno}: no flag --{key} on {command!r}")
        defaults[action.dest] = _coerce_config_value(action, key, value)
    sub.set_defaults(**defaults)


# ---------------------------------------------------------------------------
# subcommand implementations: each returns its outputs ((path, text) pairs) and
# its stdout lines, and only ``main`` writes them
# ---------------------------------------------------------------------------

def _parse_file(parse, path: str):
    """``parse`` an input CSV streamed from ``path``; a data error is raised
    again as its own type with ``path`` before its message.

    ``utf-8-sig`` drops the byte-order mark spreadsheet exports start with;
    ``newline=""`` hands CRLF line ends to the csv module.  Bytes that are
    not UTF-8 are a format error naming the line that holds the first one.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError:
            # the stream's offset counts from its current chunk, so the whole
            # file is decoded again to find the line that fails
            line = utf8_error_line(Path(path).read_bytes())
            if line is None:
                raise
            raise CsvFormatError(f"{path}: line {line}: not valid UTF-8") from None
        except DataError as exc:
            raise type(exc)(f"{path}: {exc}") from None


# readers are looked up on their modules at each call, so a wrapper put there sees it
def _scores(args, why: str) -> metrics.MetricScores:
    if args.scores is None:
        raise _UsageError(f"{why} requires --scores")
    return _parse_file(metrics.read_scores_csv, args.scores)


def _journals(args, why: str) -> corpus.JournalTable:
    from . import corpus
    if args.journals is None:
        raise _UsageError(f"{why} requires --journals")
    return _parse_file(corpus.parse_journal_metadata, args.journals)


def _ratio_analysis(args, why: str) -> stats.RatioAnalysis:
    from . import stats
    scores = _scores(args, why)
    return stats.ratio_analysis(scores.metric(args.numerator),
                                scores.metric(args.denominator), scores.journal_ids)


def _cmd_compute(args):
    from . import corpus
    table = _journals(args, "compute")
    ledger = _parse_file(corpus.parse_citation_edges, args.citations)
    try:
        scores, solver = metrics.compute_metrics(
            table, ledger, args.census_year, window=args.window, alpha=args.alpha,
            tol=args.tol, max_iter=args.max_iter,
            exclude_self_influence=not args.include_self_cites,
            exclude_self_counts=args.exclude_self_cites_counts)
    except ValidationError as exc:
        # the ledger's ids are those its rows use, and unknown ones are the
        # first check compute_metrics makes, so with any this error lists them
        unknown = {jid for jid in ledger.ids if jid not in table.index}
        if not unknown:
            raise

        def first_use(fh) -> None:  # the ledger keeps no lines, so the file is read again
            rows = CsvRows(fh)
            for row in rows:
                if {row[0].strip(), row[1].strip()} & unknown:
                    raise ValidationError(f"line {rows.line}: {exc}")

        _parse_file(first_use, args.citations)
        raise  # no row uses one now: the file changed after the parse
    return [(args.out, metrics.write_scores_csv(scores))], [
        f"wrote {len(scores)} journals to {args.out} "
        f"({solver.iterations} iterations, {solver.dangling_count} dangling)"]


def _cmd_correlate(args):
    from . import corpus, stats
    scores = _scores(args, "correlate")
    x_metric = metrics.resolve_metric(args.x)
    y_metric = metrics.resolve_metric(args.y)
    table = (_journals(args, "--by-field") if args.by_field
             else corpus.JournalTable((), (), (), (), (), ()))  # no fields: only the pooled one
    fc = stats.per_field_correlations(scores, table, x_metric, y_metric, log=args.log)
    lines = [f"pooled rho={fc.pooled.rho:.4f} n={fc.pooled.n}; wrote {args.out}"]
    if fc.skipped:
        lines.insert(0, "skipped fields (fewer than 3 usable journals): " + ", ".join(fc.skipped))
    return [(args.out, stats.write_correlations_csv(fc))], lines


def _cmd_ratio(args):
    from . import stats
    if args.test and args.group_by is None:
        raise _UsageError(f"--test {args.test} requires --group-by")
    if args.group_by is not None and args.journals is None:  # a usage error wins over a data error
        raise _UsageError("--group-by requires --journals")
    ra = _ratio_analysis(args, "ratio")
    outputs = [(args.out, csv_text(("label", "raw_ratio", "normalized"), (
        [label, f"{raw:.8g}", f"{norm:.8g}"]
        for label, raw, norm in zip(ra.labels, ra.raw_ratios, ra.normalized))))]
    lines = [f"{metrics.resolve_metric(args.numerator)}/"
             f"{metrics.resolve_metric(args.denominator)}: mean={ra.mean:.6g} "
             f"sd={ra.std_dev:.6g} cv={ra.cv:.4f} excluded={len(ra.excluded)}; wrote {args.out}"]
    if args.group_by is None:
        return outputs, lines
    members = set(_journals(args, "--group-by").members_of(args.group_by))
    in_group = [r for label, r in zip(ra.labels, ra.raw_ratios) if label in members]
    out_group = [r for label, r in zip(ra.labels, ra.raw_ratios) if label not in members]
    if not in_group or not out_group:
        raise ValidationError(f"field {args.group_by!r} does not split the journals "
                              f"({len(in_group)} vs {len(out_group)})")
    lines.append(f"group {args.group_by!r}: n={len(in_group)} mean={np.mean(in_group):.6g}; "
                 f"rest: n={len(out_group)} mean={np.mean(out_group):.6g}")
    if args.test == "mann-whitney":
        result = stats.mann_whitney_u(in_group, out_group)
        outputs.append((args.report, stats.format_utest_report(
            result, label_a=args.group_by, label_b=f"not-{args.group_by}")))
        lines.append(f"mann-whitney U={result.U:.1f} z={result.z:.4f} "
                     f"log10_p={result.log10_p:.4f}; wrote {args.report}")
    return outputs, lines


def _cmd_simulate(args):
    from . import spurious
    text = str(args.seed) if args.seed is not None else os.environ.get(SEED_ENV_VAR, "0")
    if not (text.isascii() and text.isdigit()):  # checked here for every kind
        source = "--seed" if args.seed is not None else SEED_ENV_VAR
        raise _UsageError(f"{source} must be a nonnegative integer, got {text!r}")
    seed = int(text)
    n = args.n if args.n is not None else _DEFAULT_DRAWS[args.kind]

    def specs(*override_cvs: float | None) -> list[spurious.DistributionSpec]:
        return [spurious.spec_from_cv(args.family, args.cv if cv is None else cv)
                for cv in override_cvs]

    try:
        if args.kind == "ossuary":
            result = spurious.simulate_ossuary(
                *specs(args.femur_cv, args.tibia_cv, args.humerus_cv),
                n_bones=n, trials=args.trials, seed=seed)
        elif args.kind == "yule":
            result = spurious.simulate_yule_products(
                *specs(args.z1_cv, args.z2_cv, args.x3_cv), n=n, trials=args.trials, seed=seed)
        elif args.kind == "journal-size":
            result = spurious.simulate_journal_sizes(
                args.ai_cv, args.if_cv, args.n5_cv, n_journals=n, trials=args.trials, seed=seed)
        else:  # logistic: deterministic, a single correlation
            rho = spurious.logistic_map_correlation(args.r, args.x0, n, args.burn_in)
            result = spurious.SimulationResult(
                trials=1, rho=[rho], mean_rho=rho, sd_rho=0.0, seed=seed,
                params={"simulation": "logistic", "r": args.r, "x0": args.x0,
                        "n": n, "burn_in": args.burn_in})
    # numpy cannot allocate the draws of one trial; the logistic orbit is made a
    # block at a time, so its memory does not grow with --n (its time does)
    except MemoryError:
        raise _UsageError(f"--n {n} is too large: not enough memory for its draws") from None
    return [(args.out, spurious.write_simulation_csv(result)),
            (args.summary, spurious.format_summary(result))], [
        f"{args.kind}: mean_rho={result.mean_rho:.6f} sd_rho={result.sd_rho:.6f} "
        f"trials={result.trials} seed={result.seed}; wrote {args.out}, {args.summary}"]


def _read_value_column(path: str, column: str) -> list[float]:
    def parse(fh) -> list[float]:
        rows = CsvRows(fh)
        k = {name: i for i, name in enumerate(rows.header or ())}.get(column)
        if k is None:
            raise CsvFormatError(f"line 1: no column {column!r}")
        values = [rows.decimal_cell(row[k], column) for row in rows if row[k].strip()]
        if not values:
            raise CsvFormatError(f"no values in column {column!r}")
        return values

    return _parse_file(parse, path)


def _cmd_plot(args):
    from . import report
    spec = report.FigureSpec(width=args.width, height=args.height,
                             top_fraction=args.top_fraction, title=args.title)
    if args.kind in ("slopegraph", "cardinal"):
        cmp = report.rank_comparison(_scores(args, f"plot {args.kind}"), args.left, args.right)
        top_k = min(10, len(cmp)) if args.top_k is None else args.top_k
        svg = (report.render_slopegraph(cmp, spec) if args.kind == "slopegraph"
               else report.render_cardinal_plot(cmp, spec, top_k))
    elif args.kind == "histogram":
        if args.values is None:
            raise _UsageError("plot histogram requires --values")
        svg = report.render_histogram(_read_value_column(args.values, args.column),
                                      args.bins, spec)
    else:
        svg = report.render_ratio_plot(_ratio_analysis(args, "plot ratio"), spec)
    return [(args.out, svg)], [f"wrote {args.out}"]


def _cmd_bigmac(args):
    from . import stats
    obs = stats.bigmac_fixture()
    real_wage = obs.y / obs.x

    def describe(name: str, series: np.ndarray) -> str:
        return (f"{name}: mean={series.mean():.2f} sd={series.std(ddof=1):.2f} "
                f"cv={stats.coefficient_of_variation(series):.2f}")

    lines = [f"rho={stats.pearson(obs).rho:.2f}",
             describe("burger_price", obs.x),
             describe("hourly_wage", obs.y),
             describe("real_wage", real_wage),
             f"tercile_median_ratio={stats.tercile_median_ratio(real_wage):.2f}"]
    outputs = [(args.export, stats.bigmac_csv())] if args.export is not None else []
    return outputs, lines + [f"wrote {path}" for path, _ in outputs]


def _check_outputs(paths: list[str]) -> None:
    """A usage error where two of ``paths`` name one file, and the error
    that writing would meet where a path is a directory or its directory is
    missing, raised before any output is written."""
    resolved = [Path(path).resolve() for path in paths]
    for k, path in enumerate(resolved):
        if path in resolved[:k]:
            raise _UsageError(f"two outputs name one file: {paths[k]}")
    for path in paths:
        parent = Path(path).parent
        code = (errno.EISDIR if Path(path).is_dir() else None if parent.is_dir()
                else errno.ENOTDIR if parent.exists() else errno.ENOENT)
        if code is not None:
            raise OSError(code, os.strerror(code), path)


# checked in order; a ValueError is a parameter outside its mathematical domain
_EXIT_CODES = {
    _UsageError: EXIT_USAGE,
    ValueError: EXIT_USAGE,
    OSError: EXIT_DATA,
    DataError: EXIT_DATA,
    NumericalError: EXIT_NUMERIC,
}

_COMMANDS = {
    "compute": _cmd_compute,
    "correlate": _cmd_correlate,
    "ratio": _cmd_ratio,
    "simulate": _cmd_simulate,
    "plot": _cmd_plot,
    "bigmac": _cmd_bigmac,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, by_name = _build_parser()
    try:
        _apply_config(argv, by_name)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return int(exc.code or 0)
        outputs, lines = _COMMANDS[args.command](args)
        _check_outputs([path for path, _ in outputs])
        for path, text in outputs:
            write_text(path, text)
    except tuple(_EXIT_CODES) as exc:
        if isinstance(exc, _UsageError):
            sys.stderr.write(exc.usage)
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    for line in lines:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
