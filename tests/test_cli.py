import ast
import collections
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenrank import corpus, spurious
from eigenrank import (CorrelationResult, FieldCorrelations, parse_citation_edges,
                       parse_journal_metadata, read_scores_csv, write_citation_edges,
                       write_journal_metadata, write_scores_csv)
from eigenrank.cli import main
from eigenrank.stats import write_correlations_csv
from helpers import citation_ledger, dense_reference_scores, journal_table, score_table

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"

JOURNALS = str(DATA / "journals.csv")
CITATIONS = str(DATA / "citations.csv")


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EIGENRANK_SEED", raising=False)


def compute_scores(out="scores.csv"):
    status = main(["compute", "--journals", JOURNALS, "--citations", CITATIONS,
                   "--census-year", "2006", "--out", out])
    assert status == 0
    return out


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_end_to_end_matches_dense_oracle(capsys):
    compute_scores()
    printed = capsys.readouterr().out
    assert "wrote 6 journals" in printed
    table = parse_journal_metadata(Path(JOURNALS).read_text())
    ledger = parse_citation_edges(Path(CITATIONS).read_text())
    _, ef, ai = dense_reference_scores(table, ledger, 2006)
    reread = read_scores_csv(Path("scores.csv").read_text())
    assert reread.journal_ids == ("A", "B", "C", "D", "E", "F")
    assert np.max(np.abs(reread.metric("ef") - ef)) < 5e-7  # six printed decimals
    assert np.max(np.abs(reread.metric("ai") - ai)) < 5e-7
    assert reread.metric("ef").sum() == pytest.approx(100.0, abs=1e-5)


def test_compute_symmetric_pair_prints_exact_halves(tmp_path):
    (tmp_path / "j.csv").write_text(
        "journal_id,name,fields,year,articles\n"
        "A,Alpha,,2005,10\nB,Beta,,2005,10\n")
    (tmp_path / "c.csv").write_text(
        "citing_id,cited_id,citing_year,cited_year,count\n"
        "A,B,2006,2005,5\nB,A,2006,2005,5\n")
    assert main(["compute", "--journals", "j.csv", "--citations", "c.csv",
                 "--census-year", "2006", "--out", "s.csv"]) == 0
    text = Path("s.csv").read_text()
    assert text.count(",50.000000,") == 2


def test_compute_sums_are_exact_and_past_int64_a_data_error(capsys):
    journals = "journal_id,name,fields,year,articles\nA,Alpha,,2005,3\nB,Beta,,2005,3\n"
    Path("j.csv").write_text(journals)
    Path("big_j.csv").write_text(journals + f"B,Beta,,2004,{2**63 - 3}\n")
    header = "citing_id,cited_id,citing_year,cited_year,count\nB,A,2006,2005,1\n"
    Path("exact.csv").write_text(header + f"A,B,2006,2005,{2**53}\nA,B,2006,1990,1\n")
    Path("big_c.csv").write_text(header + f"A,B,2006,2005,{2**63 - 1}\nA,B,2006,2004,1\n")
    argv = ["compute", "--census-year", "2006", "--out", "s.csv"]
    # a float64 sum would give 2**53 here
    assert main(argv + ["--journals", "j.csv", "--citations", "exact.csv"]) == 0
    assert Path("s.csv").read_text().splitlines()[2].split(",")[4] == str(2**53 + 1)
    Path("s.csv").unlink()
    for journals_csv, citations_csv, message in (
            ("big_j.csv", "exact.csv", f"journal 'B' published {2**63} articles in [2001, 2005]"),
            ("j.csv", "big_c.csv", f"journal 'B' received {2**63} citations in 2006")):
        capsys.readouterr()
        assert main(argv + ["--journals", journals_csv, "--citations", citations_csv]) == 2
        assert capsys.readouterr().err == f"error: {message}, more than a 64-bit integer holds\n"
        assert not Path("s.csv").exists()


# ---------------------------------------------------------------------------
# correlate / ratio
# ---------------------------------------------------------------------------

def test_correlate_pooled_and_by_field(capsys):
    compute_scores()
    assert main(["correlate", "--scores", "scores.csv", "--x", "if", "--y", "ai",
                 "--out", "pooled.csv"]) == 0
    pooled = Path("pooled.csv").read_text().strip().split("\n")
    assert pooled[0] == "field,n,rho,kind,log_transformed"
    assert len(pooled) == 2 and pooled[1].startswith("(pooled),6,")

    assert main(["correlate", "--scores", "scores.csv", "--by-field",
                 "--journals", JOURNALS, "--out", "fields.csv"]) == 0
    rows = Path("fields.csv").read_text().strip().split("\n")
    fields = [row.split(",")[0] for row in rows[1:]]
    assert fields == ["medicine", "public-health", "(pooled)"]
    # a field of fewer than 3 journals is named on stdout and left out of the file
    rare = Path(JOURNALS).read_text().replace(",medicine,", ",medicine;rare,")
    Path("rare.csv").write_text(rare)
    capsys.readouterr()
    assert main(["correlate", "--scores", "scores.csv", "--by-field",
                 "--journals", "rare.csv", "--out", "rare_fields.csv"]) == 0
    assert capsys.readouterr().out.startswith(
        "skipped fields (fewer than 3 usable journals): rare\n")
    assert Path("rare_fields.csv").read_bytes() == Path("fields.csv").read_bytes()


def test_ratio_with_group_test(capsys):
    compute_scores()
    assert main(["ratio", "--scores", "scores.csv", "--group-by", "public-health",
                 "--journals", JOURNALS, "--test", "mann-whitney",
                 "--out", "ratio.csv", "--report", "utest.txt"]) == 0
    ratio_rows = Path("ratio.csv").read_text().strip().split("\n")
    assert ratio_rows[0] == "label,raw_ratio,normalized"
    assert len(ratio_rows) == 7
    report = Path("utest.txt").read_text()
    for needle in ("mann-whitney-u", "group_a=public-health n1=4",
                   "n2=2", "U=", "z=", "log10_p=", "tie_groups="):
        assert needle in report
    out = capsys.readouterr().out
    assert "mann-whitney" in out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_is_byte_deterministic():
    args = ["simulate", "journal-size", "--trials", "100", "--seed", "7", "--n", "500",
            "--out", "sim_a.csv", "--summary", "sum_a.txt"]
    assert main(args) == 0
    assert main(["simulate", "journal-size", "--trials", "100", "--seed", "7",
                 "--n", "500", "--out", "sim_b.csv", "--summary", "sum_b.txt"]) == 0
    assert Path("sim_a.csv").read_bytes() == Path("sim_b.csv").read_bytes()
    assert Path("sum_a.txt").read_bytes() == Path("sum_b.txt").read_bytes()
    lines = Path("sim_a.csv").read_text().strip().split("\n")
    assert lines[0] == "trial,rho" and len(lines) == 101


def test_simulate_seed_env_var_and_flag_priority(monkeypatch):
    monkeypatch.setenv("EIGENRANK_SEED", "123")
    assert main(["simulate", "ossuary", "--trials", "3", "--n", "50",
                 "--out", "o.csv", "--summary", "o.txt"]) == 0
    assert "seed=123" in Path("o.txt").read_text()
    assert main(["simulate", "ossuary", "--trials", "3", "--n", "50", "--seed", "5",
                 "--out", "o.csv", "--summary", "o.txt"]) == 0
    assert "seed=5" in Path("o.txt").read_text()


@pytest.mark.parametrize("kind", ["ossuary", "yule", "journal-size", "logistic"])
def test_simulate_rejects_a_negative_or_malformed_seed_for_every_kind(kind, monkeypatch,
                                                                       capsys):
    argv = ["simulate", kind, "--trials", "3", "--n", "1000", "--out", "o.csv",
            "--summary", "o.txt"]
    for env, flag, message in (
            (None, ["--seed", "-1"], "--seed must be a nonnegative integer, got '-1'"),
            ("-3", [], "EIGENRANK_SEED must be a nonnegative integer, got '-3'"),
            ("abc", [], "EIGENRANK_SEED must be a nonnegative integer, got 'abc'")):
        if env is not None:
            monkeypatch.setenv("EIGENRANK_SEED", env)
        assert main(argv + flag) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("o.txt").exists()


def test_simulate_yule_writes_the_library_result():
    assert main(["simulate", "yule", "--trials", "20", "--n", "500", "--seed", "3",
                 "--cv", "0.2", "--out", "y.csv", "--summary", "y.txt"]) == 0
    spec = spurious.lognormal_from_cv(0.2)
    result = spurious.simulate_yule_products(spec, spec, spec, n=500, trials=20, seed=3)
    assert Path("y.csv").read_text() == spurious.write_simulation_csv(result)
    assert Path("y.txt").read_text() == spurious.format_summary(result)
    assert abs(result.mean_rho - 0.5) < 0.05  # equal cvs: half of each product's variance


def test_simulate_logistic_reports_single_rho():
    assert main(["simulate", "logistic", "--n", "20000",
                 "--out", "log.csv", "--summary", "log.txt"]) == 0
    rows = Path("log.csv").read_text().strip().split("\n")
    assert len(rows) == 2
    assert abs(float(rows[1].split(",")[1])) < 0.05
    assert "burn_in=1000" in Path("log.txt").read_text()


def test_simulate_logistic_output_is_independent_of_blas_threads():
    # rho is summed by numpy's pairwise add.reduce a block at a time, not by
    # BLAS, so the OpenBLAS thread count cannot move even its last bit
    env = dict(os.environ, PYTHONPATH=str(SRC))
    written = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run([sys.executable, "-m", "eigenrank.cli", "simulate", "logistic",
                        "--out", f"log{threads}.csv", "--summary", f"log{threads}.txt"],
                       env=env, capture_output=True, timeout=120, check=True)
        written.append((Path(f"log{threads}.csv").read_bytes(),
                        Path(f"log{threads}.txt").read_bytes()))
    assert written[0] == written[1]


def test_simulate_ossuary_output_is_independent_of_the_blas_kernel():
    # OPENBLAS_CORETYPE makes a DYNAMIC_ARCH OpenBLAS (numpy's wheels) use
    # another CPU's kernels; summed by BLAS ddot, trial 480's rho changed in
    # its 12th digit under Prescott
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_VERBOSE="2")
    env.pop("OPENBLAS_CORETYPE", None)
    cores, written = [], []
    for name, kernel in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        done = subprocess.run(
            [sys.executable, "-m", "eigenrank.cli", "simulate", "ossuary", "--cv", "0.1",
             "--n", "1000", "--trials", "1000", "--seed", "0",
             "--out", f"{name}.csv", "--summary", f"{name}.txt"],
            env=dict(env, **kernel), capture_output=True, text=True, timeout=120, check=True)
        cores.append([line for line in done.stderr.splitlines() if line.startswith("Core:")])
        written.append(Path(f"{name}.csv").read_bytes())
    if cores[0] == cores[1]:
        pytest.skip(f"OPENBLAS_CORETYPE did not change the OpenBLAS kernel ({cores[0]})")
    default, prescott = (text.decode().splitlines() for text in written)
    differ = [k + 1 for k, (a, b) in enumerate(zip(default, prescott)) if a != b]
    assert not differ, f"ossuary.csv lines {differ} differ: {cores}"
    assert written[0] == written[1]


@pytest.mark.parametrize("kind, simulator", [
    ("ossuary", "simulate_ossuary"), ("yule", "simulate_yule_products"),
    ("journal-size", "simulate_journal_sizes"), ("logistic", "logistic_map_correlation")])
def test_simulate_out_of_memory_is_a_usage_error(kind, simulator, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spurious, simulator, out_of_memory)
    assert main(["simulate", kind, "--n", "100000000000", "--trials", "1",
                 "--out", "o.csv", "--summary", "o.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --n 100000000000 is too large: "
                            "not enough memory for its draws\n")
    assert not Path("o.csv").exists() and not Path("o.txt").exists()


# each simulator's leading arguments when simulate has no flag but --cv 0.3
# (ossuary and yule draw every variable from it, journal-size has its own cvs)
_SIMULATOR_DEFAULTS = {
    "simulate_ossuary": [spurious.spec_from_cv("lognormal", 0.3)] * 3,
    "simulate_yule_products": [spurious.spec_from_cv("lognormal", 0.3)] * 3,
    "simulate_journal_sizes": [1.785, 1.548, 1.910],
    "logistic_map_correlation": [4.0, 0.2, 1000, 1000],  # r, x0, --n, --burn-in
}


@pytest.mark.parametrize("kind, simulator, flag, position", [
    *(("ossuary", "simulate_ossuary", flag, k)
      for k, flag in enumerate(("--femur-cv", "--tibia-cv", "--humerus-cv"))),
    *(("yule", "simulate_yule_products", flag, k)
      for k, flag in enumerate(("--z1-cv", "--z2-cv", "--x3-cv"))),
    *(("journal-size", "simulate_journal_sizes", flag, k)
      for k, flag in enumerate(("--ai-cv", "--if-cv", "--n5-cv"))),
    ("logistic", "logistic_map_correlation", "--burn-in", 3)])
def test_each_simulate_flag_reaches_its_simulator(kind, simulator, flag, position, monkeypatch):
    calls = []
    run = getattr(spurious, simulator)
    monkeypatch.setattr(spurious, simulator, lambda *args, **kwargs: (
        calls.append(args), run(*args, **kwargs))[1])
    assert main(["simulate", kind, flag, "7", "--cv", "0.3", "--n", "1000", "--trials", "2"]) == 0
    expected = list(_SIMULATOR_DEFAULTS[simulator])
    expected[position] = spurious.spec_from_cv("lognormal", 7) if kind in ("ossuary", "yule") else 7
    assert [list(args[:len(expected)]) for args in calls] == [expected]


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    Path("sim.cfg").write_text("# trial budget\n\ntrials=4\nn=64\nseed=9\n")
    assert main(["simulate", "ossuary", "--config", "sim.cfg",
                 "--out", "a.csv", "--summary", "a.txt"]) == 0
    assert "trials=4" in Path("a.txt").read_text()
    assert main(["simulate", "ossuary", "--config=sim.cfg", "--trials", "2",
                 "--out", "b.csv", "--summary", "b.txt"]) == 0
    assert "trials=2" in Path("b.txt").read_text()
    # a boolean key behaves like its flag
    Path("self.cfg").write_text("include-self-cites=yes\n")
    compute = ["compute", "--journals", JOURNALS, "--citations", CITATIONS,
               "--census-year", "2006"]
    assert main(compute + ["--config", "self.cfg", "--out", "cfg.csv"]) == 0
    assert main(compute + ["--include-self-cites", "--out", "flag.csv"]) == 0
    compute_scores("plain.csv")
    assert Path("cfg.csv").read_bytes() == Path("flag.csv").read_bytes()
    assert Path("cfg.csv").read_bytes() != Path("plain.csv").read_bytes()
    Path("self.cfg").write_text("include-self-cites=no\n")
    assert main(compute + ["--config", "self.cfg", "--out", "cfg.csv"]) == 0
    assert Path("cfg.csv").read_bytes() == Path("plain.csv").read_bytes()


def test_config_rejects_unknown_keys(capsys):
    Path("bad.cfg").write_text("bogus=1\n")
    assert main(["simulate", "ossuary", "--config", "bad.cfg"]) == 1
    assert "bogus" in capsys.readouterr().err
    for text, argv, message in (
            ("trials=4\n", ["simulate", "ossuary", "--config"], "--config requires a path"),
            ("trials=4\n", ["--config", "c.cfg"], "--config requires a recognized subcommand"),
            ("# comment\n\ntrials 4\n", ["simulate", "ossuary", "--config", "c.cfg"],
             "c.cfg:3: expected key=value, got 'trials 4'"),
            ("include-self-cites=maybe\n", ["compute", "--config", "c.cfg"],
             "config key 'include-self-cites' expects a boolean, got 'maybe'"),
            ("trials=x\n", ["simulate", "ossuary", "--config", "c.cfg"],
             "config key 'trials': cannot parse 'x'"),
            ("family=weird\n", ["simulate", "ossuary", "--config", "c.cfg"],
             "config key 'family': 'weird' not in")):
        Path("c.cfg").write_text(text)
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
    # a byte-order mark is skipped as in the input files; an unreadable config file is a
    # usage error naming it, and its line if it is not UTF-8
    Path("bom.cfg").write_bytes(b"\xef\xbb\xbfbogus=1\n")
    assert main(["simulate", "ossuary", "--config", "bom.cfg"]) == 1
    assert capsys.readouterr().err.endswith("error: bom.cfg:1: no flag --bogus on 'simulate'\n")
    Path("latin1.cfg").write_bytes(b"trials=4\n# caf\xe9\n")
    for path, message in (("latin1.cfg", "latin1.cfg:2: not valid UTF-8"),
                          ("missing.cfg", "missing.cfg: cannot read config file: "
                                          "No such file or directory")):
        assert main(["simulate", "ossuary", "--config", path]) == 1
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not Path("simulation.csv").exists() and not Path("scores.csv").exists()


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def test_plot_commands_render_deterministic_svg():
    compute_scores()
    assert main(["correlate", "--scores", "scores.csv", "--by-field",
                 "--journals", JOURNALS, "--out", "correlations.csv"]) == 0
    for args, out in [
        (["plot", "slopegraph", "--scores", "scores.csv", "--left", "tc",
          "--right", "ef", "--title", "total cites vs influence"], "slope.svg"),
        (["plot", "cardinal", "--scores", "scores.csv", "--left", "if",
          "--right", "ai", "--top-k", "4"], "cardinal.svg"),
        (["plot", "histogram", "--values", "correlations.csv", "--column", "rho",
          "--bins", "5"], "hist.svg"),
        (["plot", "ratio", "--scores", "scores.csv"], "ratio.svg"),
    ]:
        assert main(args + ["--out", out]) == 0
        first = Path(out).read_bytes()
        assert main(args + ["--out", out]) == 0
        assert Path(out).read_bytes() == first
        assert first.startswith(b"<?xml")


def test_plot_slopegraph_respects_top_fraction():
    compute_scores()
    assert main(["plot", "slopegraph", "--scores", "scores.csv",
                 "--top-fraction", "0.5", "--out", "half.svg"]) == 0
    svg = Path("half.svg").read_text()
    assert svg.count('text-anchor="end"') == 3 + 1  # 3 of 6 journals + header


def test_plot_cardinal_shows_ten_journals_or_every_one_by_default(capsys):
    compute_scores()
    Path("twelve.csv").write_text(write_scores_csv(score_table(
        [f"J{k:02d}" for k in range(12)], ef=np.linspace(12.0, 1.0, 12),
        total_citations=np.arange(12, 0, -1) * 3)))
    for scores, k in (("scores.csv", "6"), ("twelve.csv", "10")):
        cardinal = ["plot", "cardinal", "--scores", scores, "--out"]
        assert main(cardinal + ["default.svg"]) == 0
        assert main(cardinal + ["explicit.svg", "--top-k", k]) == 0
        assert Path("default.svg").read_bytes() == Path("explicit.svg").read_bytes(), scores
    capsys.readouterr()
    # an explicit --top-k past the journals stays a usage error
    assert main(["plot", "cardinal", "--scores", "scores.csv", "--top-k", "7",
                 "--out", "seven.svg"]) == 1
    assert capsys.readouterr().err == "error: top_k must lie between 1 and the number of items\n"
    assert not Path("seven.svg").exists()


# ---------------------------------------------------------------------------
# bigmac
# ---------------------------------------------------------------------------

def test_bigmac_prints_table_statistics(capsys):
    assert main(["bigmac"]) == 0
    out = capsys.readouterr().out
    assert "rho=0.99" in out
    assert "real_wage: mean=3.72 sd=2.29 cv=0.62" in out
    assert "tercile_median_ratio=5.03" in out


def test_bigmac_export(tmp_path):
    assert main(["bigmac", "--export", "bigmac.csv"]) == 0
    lines = Path("bigmac.csv").read_text().strip().split("\n")
    assert lines[0] == "country,burger_price,hourly_wage"
    assert len(lines) == 23


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_codes_usage_errors(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    assert main(["bigmac", "--bogus"]) == 1
    assert main(["compute", "--journals", JOURNALS, "--citations", CITATIONS,
                 "--census-year", "not-a-year"]) == 1
    assert main(["simulate", "ossuary", "--n", "3"]) == 1  # below the domain minimum
    capsys.readouterr()
    for max_iter in ("0", "-2"):
        assert main(["compute", "--journals", JOURNALS, "--citations", CITATIONS,
                     "--census-year", "2006", "--max-iter", max_iter]) == 1
        assert capsys.readouterr().err == f"error: max_iter must be at least 1, got {max_iter}\n"
    compute_scores("s.csv")
    capsys.readouterr()
    compute = ["compute", "--journals", JOURNALS, "--citations", CITATIONS, "--census-year", "2006"]
    for argv, message in ((["correlate", "--scores", "s.csv", "--by-field"],
                           "--by-field requires --journals"),
                          (["plot", "slopegraph", "--out", "p.svg"],
                           "plot slopegraph requires --scores"),
                          (["plot", "histogram", "--out", "p.svg"],
                           "plot histogram requires --values"),
                          (compute + ["--window", "0"], "window must be positive"),
                          (compute + ["--tol", "0"], "tol must be positive and finite, got 0.0")):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("scores.csv").exists() and not Path("correlations.csv").exists()
    assert not Path("p.svg").exists()


def test_plot_sizes_past_the_figure_are_usage_errors(capsys):
    Path("v.csv").write_text("rho\n0.1\n0.5\n0.9\n")
    histogram = ["plot", "histogram", "--values", "v.csv", "--out", "h.svg"]
    for argv, message in ((histogram + ["--width", "10", "--height", "10"],
                           "a 10x10 figure leaves no plot area inside its margins"),
                          (histogram + ["--bins", "1000000000000"],
                           "bins must be at most 65800, 100 a pixel of the plot width, "
                           "got 1000000000000")):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not Path("h.svg").exists()


def test_nan_and_infinite_parameters_are_usage_errors(capsys):
    # NaN passes a `tol <= 0` or `cv <= 0` check; an infinite tolerance stops
    # after one iteration, and an infinite cv gives NaN draws
    compute = ["compute", "--journals", JOURNALS, "--citations", CITATIONS,
               "--census-year", "2006"]
    for argv, message in ((compute + ["--tol", "nan"], "tol must be positive and finite, got nan"),
                          (compute + ["--tol", "inf"], "tol must be positive and finite, got inf"),
                          (["simulate", "ossuary", "--cv", "inf"],
                           "cv must be positive and finite, got inf"),
                          (["simulate", "yule", "--family", "normal-truncated-positive",
                            "--cv", "nan"],
                           "location must be finite, and scale positive and finite")):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("scores.csv").exists() and not Path("simulation.csv").exists()


# the input files, each with its header and a call that reads it from in.csv
_READERS = {
    "journals.csv": ("journal_id,name,fields,year,articles",
                     ["compute", "--journals", "in.csv", "--citations", CITATIONS,
                      "--census-year", "2006"]),
    "citations.csv": ("citing_id,cited_id,citing_year,cited_year,count",
                      ["compute", "--journals", JOURNALS, "--citations", "in.csv",
                       "--census-year", "2006"]),
    "scores.csv": ("journal_id,ef,ai,impact_factor,total_citations,n5,n2",
                   ["correlate", "--scores", "in.csv"]),
    "--values": ("trial,rho", ["plot", "histogram", "--values", "in.csv", "--out", "h.svg"]),
}
_SCORES_ROW = "60.000000,1.000000,2.000000,10,5,2"


@pytest.mark.parametrize("reader, rows, message", [
    ("journals.csv", "A,Alpha,,2_006,10", "line 2: malformed year '2_006'"),
    ("journals.csv", "A,Alpha,,2005,+3", "line 2: malformed articles '+3'"),
    ("journals.csv", "A,Alpha,,\u0662\u0660\u0660\u0665,10",
     "line 2: malformed year '\u0662\u0660\u0660\u0665'"),
    ("journals.csv", "A,Alpha,,2005,\uff13", "line 2: malformed articles '\uff13'"),
    ("citations.csv", "A,B,2006,2005,1\nA,B,2_006,2005,1",
     "line 3: malformed citing_year '2_006'"),
    ("citations.csv", "A,B,2006,2005,+3", "line 2: malformed count '+3'"),
    ("citations.csv", "A,B,2006,\u0662\u0660\u0660\u0665,1",
     "line 2: malformed cited_year '\u0662\u0660\u0660\u0665'"),
    ("citations.csv", "A,B,2006,2005,\uff13", "line 2: malformed count '\uff13'"),
    ("citations.csv", "A,B,2006,2005,1\nA, ,2006,2005,1", "line 3: empty cited_id"),
    ("scores.csv", "A,2_006,1.0,2.0,10,5,2", "line 2: malformed ef '2_006'"),
    ("scores.csv", "A,+3,1.0,2.0,10,5,2", "line 2: malformed ef '+3'"),
    ("scores.csv", "A,60.0,1.0,2.0,+3,5,2", "line 2: malformed total_citations '+3'"),
    ("scores.csv", "A,60.0,\u0663,2.0,10,5,2", "line 2: malformed ai '\u0663'"),
    ("scores.csv", "A,60.0,1.0,2.0,10,\uff13,2", "line 2: malformed n5 '\uff13'"),
    ("scores.csv", f"A,{_SCORES_ROW}\nB,40.0,nan,1.0,8,5,2", "line 3: malformed ai 'nan'"),
    ("scores.csv", f"A,{_SCORES_ROW}\nB,40.0,1.0,inf,8,5,2",
     "line 3: malformed impact_factor 'inf'"),
    ("scores.csv", f" J1 ,{_SCORES_ROW}\nJ1,{_SCORES_ROW}", "line 3: duplicate journal_id 'J1'"),
    ("scores.csv", f"A,{_SCORES_ROW}\n,{_SCORES_ROW}", "line 3: empty journal_id"),
    ("--values", "0,0.5\n1,2_006", "line 3: malformed rho '2_006'"),
    ("--values", "0,+3", "line 2: malformed rho '+3'"),
    ("--values", "0,\u0663", "line 2: malformed rho '\u0663'"),
    ("--values", "0,\uff13", "line 2: malformed rho '\uff13'"),
    ("--values", "0,0.5\n1,nan", "line 3: malformed rho 'nan'"),
    ("--values", "0,inf", "line 2: malformed rho 'inf'"),
    ("--values", "0,0.5\n1\n2,0.25", "line 3: expected 2 columns, got 1"),
])
def test_every_reader_rejects_a_cell_outside_the_grammar_by_line(reader, rows, message, capsys):
    header, argv = _READERS[reader]
    Path("in.csv").write_text(f"{header}\n{rows}\n", encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: in.csv: {message}\n"


def test_exit_codes_data_errors(tmp_path, capsys):
    Path("broken.csv").write_text("citing_id,cited_id,citing_year,cited_year,count\n"
                                  "A,B,2006,2005,0\n")
    assert main(["compute", "--journals", JOURNALS, "--citations", "broken.csv",
                 "--census-year", "2006"]) == 2
    Path("unknown.csv").write_text("citing_id,cited_id,citing_year,cited_year,count\n"
                                   "A,Zed,2006,2005,3\n")
    assert main(["compute", "--journals", JOURNALS, "--citations", "unknown.csv",
                 "--census-year", "2006"]) == 2
    assert main(["compute", "--journals", "missing.csv", "--citations", CITATIONS,
                 "--census-year", "2006"]) == 2
    Path("v.csv").write_text("trial,rho\n0,0.5\n1,abc\n")
    for column, message in (("nope", "v.csv: line 1: no column 'nope'"),
                            ("rho", "v.csv: line 3: malformed rho 'abc'")):
        assert main(["plot", "histogram", "--values", "v.csv", "--column", column,
                     "--out", "h.svg"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
    # bytes that are not UTF-8 (a Latin-1 e-acute) are a data error naming their line
    latin1 = Path(JOURNALS).read_text().replace("Alpha", "Alph\u00e9", 2).encode("latin-1")
    Path("latin1.csv").write_bytes(latin1)
    compute_scores("s.csv")
    Path("s1.csv").write_bytes(Path("s.csv").read_bytes().replace(b"\nA,", b"\n\xe9,"))
    Path("v1.csv").write_bytes(b"rho\n0.5\n\xe9\n")
    capsys.readouterr()
    for argv, path, line in (
            (["compute", "--journals", "latin1.csv", "--citations", CITATIONS,
              "--census-year", "2006"], "latin1.csv", 2),
            (["correlate", "--scores", "s1.csv"], "s1.csv", 2),
            (["correlate", "--scores", "s.csv", "--by-field", "--journals", "latin1.csv"],
             "latin1.csv", 2),
            (["plot", "histogram", "--values", "v1.csv", "--out", "h.svg"], "v1.csv", 3)):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: line {line}: not valid UTF-8\n"
    # a cell longer than the csv module's field size limit (131,072 characters)
    long_cell = "X" * 140_000
    Path("long_c.csv").write_text(Path(CITATIONS).read_text().replace("\nA,", f"\n{long_cell},", 1))
    Path("long_j.csv").write_text(Path(JOURNALS).read_text() + f"{long_cell},x,,2005,1\n")
    Path("long_s.csv").write_text(Path("s.csv").read_text().replace("\nA,", f"\n{long_cell},", 1))
    Path("long_v.csv").write_text(f"rho\n0.5\n{long_cell}\n")
    journal_lines = len(Path(JOURNALS).read_text().splitlines())
    for argv, message in (
            (["compute", "--journals", JOURNALS, "--citations", "long_c.csv",
              "--census-year", "2006"],
             "long_c.csv: line 2: field larger than field limit (131072)"),
            (["compute", "--journals", "long_j.csv", "--citations", CITATIONS,
              "--census-year", "2006"],
             f"long_j.csv: line {journal_lines + 1}: field larger than field limit (131072)"),
            (["correlate", "--scores", "long_s.csv"],
             "long_s.csv: line 2: field larger than field limit (131072)"),
            (["plot", "histogram", "--values", "long_v.csv", "--out", "h.svg"],
             "long_v.csv: line 3: field larger than field limit (131072)")):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("scores.csv").exists() and not Path("correlations.csv").exists()
    assert not Path("h.svg").exists()


def test_unknown_journal_ids_name_the_line_of_their_first_row(capsys):
    # a blank line and a known id quoted over two lines come before the first
    # row with an unknown id, on line 6; the ids are escaped as the cells are
    Path("j.csv").write_text(Path(JOURNALS).read_text() + '"X\nY",Split,,2005,3\n')
    Path("c.csv").write_text("citing_id,cited_id,citing_year,cited_year,count\n"
                             'A,B,2006,2005,1\n\n"X\nY",A,2006,2005,2\n'
                             "A, \x1a ,2006,2005,3\nZed,B,2006,2005,1\n\ufeffC,A,2006,2005,1\n",
                            encoding="utf-8")
    assert main(["compute", "--journals", "j.csv", "--citations", "c.csv",
                 "--census-year", "2006"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: c.csv: line 6: unknown journal ids in ledger: "
                            "'\\x1a', 'Zed', '\\ufeffC'\n")
    # an unknown id quoted over lines 3 and 4 is named at its row's first line
    Path("c.csv").write_text("citing_id,cited_id,citing_year,cited_year,count\n"
                             'A,B,2006,2005,1\n"Z\ned",A,2006,2005,2\n')
    assert main(["compute", "--journals", "j.csv", "--citations", "c.csv",
                 "--census-year", "2006"]) == 2
    assert capsys.readouterr().err == ("error: c.csv: line 3: unknown journal ids in ledger: "
                                       "'Z\\ned'\n")
    assert not Path("scores.csv").exists()


def test_unknown_ids_not_found_again_keep_the_library_message(monkeypatch, capsys):
    # the file changes between the parse and the read that looks for the line
    parse = corpus.parse_citation_edges

    def parse_then_replace(fh):
        ledger = parse(fh)
        Path("c.csv").write_text(Path(CITATIONS).read_text())
        return ledger

    monkeypatch.setattr(corpus, "parse_citation_edges", parse_then_replace)
    Path("c.csv").write_text("citing_id,cited_id,citing_year,cited_year,count\n"
                             "A,Zed,2006,2005,3\n")
    assert main(["compute", "--journals", JOURNALS, "--citations", "c.csv",
                 "--census-year", "2006"]) == 2
    assert capsys.readouterr().err == "error: unknown journal ids in ledger: 'Zed'\n"


def test_journals_cited_without_articles_in_the_window_are_named_by_id(capsys):
    # B and C's publish only in 1990, outside the window, and are cited in it
    Path("j.csv").write_text("journal_id,name,fields,year,articles\n"
                             "A,Alpha,,2005,3\nB,Beta,,1990,2\nC's,Gamma,,1990,1\n")
    Path("c.csv").write_text("citing_id,cited_id,citing_year,cited_year,count\n"
                             "A,B,2006,2005,4\nA,C's,2006,2004,1\nB,A,2006,2005,1\n")
    assert main(["compute", "--journals", "j.csv", "--citations", "c.csv",
                 "--census-year", "2006"]) == 2
    assert capsys.readouterr().err == ("error: 2 journal(s) received citations but published "
                                       "no articles in the window: 'B', \"C's\"\n")
    assert not Path("scores.csv").exists()


def test_duplicate_journal_id_in_scores_is_a_data_error(capsys):
    Path("dup.csv").write_text(
        "journal_id,ef,ai,impact_factor,total_citations,n5,n2\n"
        "A,50.000000,1.000000,2.000000,10,5,2\n"
        "A,30.000000,0.500000,1.000000,8,5,2\n"
        "B,20.000000,0.400000,3.000000,6,5,2\n")
    for args in (["correlate", "--scores", "dup.csv"],
                 ["correlate", "--scores", "dup.csv", "--by-field", "--journals", JOURNALS],
                 ["plot", "slopegraph", "--scores", "dup.csv", "--out", "dup.svg"]):
        assert main(args) == 2
        assert "line 3: duplicate journal_id 'A'" in capsys.readouterr().err
    assert not Path("correlations.csv").exists() and not Path("dup.svg").exists()


def test_ratio_usage_errors_write_nothing(capsys):
    compute_scores()
    assert main(["ratio", "--scores", "scores.csv", "--test", "mann-whitney"]) == 1
    assert "--test mann-whitney requires --group-by" in capsys.readouterr().err
    assert main(["ratio", "--scores", "scores.csv", "--group-by", "medicine"]) == 1
    assert "--group-by requires --journals" in capsys.readouterr().err
    # a field that does not split the journals, or unreadable journals, is a data error
    for field, journals in (("nonexistent", JOURNALS), ("medicine", "missing.csv")):
        assert main(["ratio", "--scores", "scores.csv", "--group-by", field,
                     "--journals", journals, "--test", "mann-whitney"]) == 2
        assert capsys.readouterr().out == ""
    assert not Path("ratio.csv").exists() and not Path("utest.txt").exists()


_NO_FILE = "[Errno 2] No such file or directory: ''"


@pytest.mark.parametrize("argv, status, message", [
    (["bigmac", "--export", ""], 2, "[Errno 21] Is a directory: ''"),
    (["ratio", "--scores", "scores.csv", "--group-by", "", "--journals", JOURNALS], 2,
     "field '' does not split the journals (0 vs 6)"),
    (["ratio", "--scores", "scores.csv", "--group-by", "", "--test", "mann-whitney"], 1,
     "--group-by requires --journals"),
    (["compute", "--journals", "", "--citations", CITATIONS, "--census-year", "2006"], 2,
     _NO_FILE),
    (["correlate", "--scores", "scores.csv", "--by-field", "--journals", ""], 2, _NO_FILE),
    (["plot", "histogram", "--values", "", "--out", "h.svg"], 2, _NO_FILE),
    (["plot", "ratio", "--scores", "", "--out", "r.svg"], 2, _NO_FILE),
])
def test_an_empty_value_is_given_not_absent(argv, status, message, capsys):
    # an empty path or field label meets the error any other bad one meets
    compute_scores()
    capsys.readouterr()
    assert main(argv) == status
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [p.name for p in Path().iterdir()] == ["scores.csv"]


def test_ratio_with_a_zero_median_is_a_numerical_error_and_writes_nothing(capsys):
    # three of four journals have EF 0, so the median EF/TC ratio is 0
    Path("scores.csv").write_text("journal_id,ef,ai,impact_factor,total_citations,n5,n2\n"
                                  "A,100.000000,1.000000,1.000000,5,10,4\n"
                                  "B,0.000000,,,3,0,0\nC,0.000000,,,2,0,0\nD,0.000000,,,1,0,0\n")
    for args, out in ((["ratio", "--scores", "scores.csv", "--out", "ratio.csv"], "ratio.csv"),
                      (["plot", "ratio", "--scores", "scores.csv", "--out", "r.svg"], "r.svg")):
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the median ratio is 0 (3 of 4 ratios are 0), "
                                "so it cannot normalize them\n")
        assert not Path(out).exists()


def test_ratio_with_a_failing_group_test_writes_nothing(capsys):
    # every EF/TC ratio is 0.5, so the rank-sum test fails after the split
    rows = (f"{jid},{tc / 2:.6f},1.000000,1.000000,{tc},10,4\n"
            for jid, tc in zip("ABCDEF", range(2, 14, 2)))
    Path("scores.csv").write_text("journal_id,ef,ai,impact_factor,total_citations,n5,n2\n"
                                  + "".join(rows))
    assert main(["ratio", "--scores", "scores.csv", "--group-by", "medicine",
                 "--journals", JOURNALS, "--test", "mann-whitney"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: all pooled observations are identical\n"
    assert captured.out == ""
    assert not Path("ratio.csv").exists() and not Path("utest.txt").exists()


def test_two_outputs_naming_one_file_are_a_usage_error(capsys, tmp_path):
    compute_scores()
    capsys.readouterr()
    for argv, path in (
            (["ratio", "--scores", "scores.csv", "--group-by", "medicine", "--journals",
              JOURNALS, "--test", "mann-whitney", "--out", "r.csv", "--report", "./r.csv"],
             "./r.csv"),
            (["simulate", "yule", "--trials", "3", "--out", "P", "--summary", "P"], "P"),
            (["simulate", "yule", "--trials", "3", "--summary", str(tmp_path / "simulation.csv")],
             str(tmp_path / "simulation.csv"))):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: two outputs name one file: {path}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv"]


def test_missing_output_directory_writes_nothing(capsys, tmp_path):
    for missing in ("missing/dir/s.txt", "/missing/dir/s.txt", "./missing//s.txt"):
        assert main(["simulate", "yule", "--trials", "3", "--summary", missing]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert captured.out == "" and not any(tmp_path.iterdir())
    Path("file").write_text("")
    Path("dir").mkdir()
    for out, error in (("file/sim.csv", "[Errno 20] Not a directory: 'file/sim.csv'"),
                       ("dir", "[Errno 21] Is a directory: 'dir'")):
        assert main(["simulate", "yule", "--trials", "3", "--summary", out]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert not any(Path("dir").iterdir())


def test_cli_reads_through_module_attributes(monkeypatch):
    # a wrapper put on the module, as perfbench's tracer does, sees every read
    import eigenrank.corpus
    import eigenrank.metrics
    calls = collections.Counter()
    for module, name in ((eigenrank.corpus, "parse_journal_metadata"),
                         (eigenrank.corpus, "parse_citation_edges"),
                         (eigenrank.metrics, "read_scores_csv")):
        def counted(*args, _read=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _read(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    journals, scores = "parse_journal_metadata", "read_scores_csv"
    for argv, reads in (
            (["compute", "--journals", JOURNALS, "--citations", CITATIONS,
              "--census-year", "2006"], [journals, "parse_citation_edges"]),
            (["correlate", "--scores", "scores.csv", "--by-field", "--journals", JOURNALS],
             [scores, journals]),
            (["ratio", "--scores", "scores.csv", "--group-by", "medicine",
              "--journals", JOURNALS], [scores, journals]),
            (["plot", "slopegraph", "--scores", "scores.csv", "--out", "s.svg"], [scores])):
        calls.clear()
        assert main(argv) == 0
        assert calls == collections.Counter(reads), argv[0]


def test_empty_histogram_input_is_a_data_error(capsys):
    Path("empty.csv").write_text("trial,rho\n0,\n")
    Path("nan.csv").write_text("trial,rho\n0,0.5\n1,nan\n")
    Path("inf.csv").write_text("trial,rho\n0,inf\n1,0.5\n")
    for name, message in (("empty.csv", "empty.csv: no values in column 'rho'"),
                          ("nan.csv", "nan.csv: line 3: malformed rho 'nan'"),
                          ("inf.csv", "inf.csv: line 2: malformed rho 'inf'")):
        assert main(["plot", "histogram", "--values", name, "--out", "h.svg"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("h.svg").exists()


_OVERFLOW = "histogram overflows: the values' range, sum or variance is past the float range"


@pytest.mark.parametrize("values, code, message", [
    # 0.5 either side of a value this far from 0 holds too few floats for 20 bin edges
    ("rho\n1e15\n", 0, None), ("rho\n-1e300\n", 0, None),
    ("rho\n1e300\n1e300\n5\n", 3, _OVERFLOW), ("rho\n1e308\n-1e308\n", 3, _OVERFLOW),
    ("rho\n1e15\n1.000000000000000125e15\n", 3, "the values' range 1000000000000000.0 to "
     "1000000000000000.1 is too narrow for 20 bins with distinct edges")],
    ids=("one value of 1e15", "one value of -1e300", "variance past the float range",
         "range past the float range", "range too narrow for the bins"))
def test_histogram_of_extreme_values_is_one_bar_or_a_domain_error(values, code, message, capsys):
    Path("v.csv").write_text(values)
    assert main(["plot", "histogram", "--values", "v.csv", "--out", "h.svg"]) == code
    if message is None:  # the one full bar of any single value
        Path("plain.csv").write_text("rho\n0.7\n")
        assert main(["plot", "histogram", "--values", "plain.csv", "--out", "plain.svg"]) == 0
        assert ([line for line in Path("h.svg").read_text().splitlines() if "<rect" in line]
                == [line for line in Path("plain.svg").read_text().splitlines()
                    if "<rect" in line])
    else:
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("h.svg").exists()


def test_out_of_range_year_exits_with_data_error(capsys):
    Path("huge.csv").write_text("citing_id,cited_id,citing_year,cited_year,count\n"
                                "A,B,2006,99999999999999999999999,3\n")
    assert main(["compute", "--journals", JOURNALS, "--citations", "huge.csv",
                 "--census-year", "2006"]) == 2
    assert "line 2: cited_year 99999999999999999999999 out of range" in capsys.readouterr().err


def test_bom_and_crlf_inputs_give_identical_outputs(capsys):
    for name, src in (("j.csv", JOURNALS), ("c.csv", CITATIONS)):
        text = Path(src).read_text(encoding="utf-8")
        assert "\r" not in text and not text.startswith("\ufeff")
        Path(name).write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
    assert main(["compute", "--journals", "j.csv", "--citations", "c.csv",
                 "--census-year", "2006", "--out", "bom.csv"]) == 0
    compute_scores("plain.csv")
    assert Path("bom.csv").read_bytes() == Path("plain.csv").read_bytes()
    # scores.csv and journals.csv are read the same way downstream
    Path("s.csv").write_bytes(b"\xef\xbb\xbf" + Path("plain.csv").read_bytes())
    for scores, out in (("s.csv", "r_bom.csv"), ("plain.csv", "r_plain.csv")):
        assert main(["ratio", "--scores", scores, "--out", out, "--group-by", "public-health",
                     "--journals", "j.csv", "--test", "mann-whitney",
                     "--report", out + ".txt"]) == 0
    assert Path("r_bom.csv").read_bytes() == Path("r_plain.csv").read_bytes()
    assert Path("r_bom.csv.txt").read_bytes() == Path("r_plain.csv.txt").read_bytes()
    Path("v.csv").write_bytes(b"\xef\xbb\xbfrho\r\n0.5\r\n-0.25\r\n")
    Path("v_plain.csv").write_bytes(b"rho\n0.5\n-0.25\n")
    for values in ("v.csv", "v_plain.csv"):
        assert main(["plot", "histogram", "--values", values, "--out", values + ".svg"]) == 0
    assert Path("v.csv.svg").read_bytes() == Path("v_plain.csv.svg").read_bytes()
    capsys.readouterr()


def test_cr_line_ends_parse_the_same_from_text_and_file():
    compute_scores("plain.csv")
    for src, parse, write in ((JOURNALS, parse_journal_metadata, write_journal_metadata),
                              (CITATIONS, parse_citation_edges, write_citation_edges),
                              ("plain.csv", read_scores_csv, write_scores_csv)):
        plain = Path(src).read_text(encoding="utf-8")
        text = plain.replace("\n", "\r")
        Path("cr.csv").write_bytes(text.encode("utf-8"))
        with open("cr.csv", encoding="utf-8-sig", newline="") as fh:  # as the CLI opens it
            from_file = parse(fh)
        assert write(parse(text)) == write(from_file) == plain


def test_exit_codes_numerical_errors(tmp_path, capsys):
    assert main(["compute", "--journals", JOURNALS, "--citations", CITATIONS,
                 "--census-year", "2006", "--max-iter", "1"]) == 3
    assert "convergence" in capsys.readouterr().err.lower()
    # constant column -> undefined correlation
    Path("flat.csv").write_text(
        "journal_id,ef,ai,impact_factor,total_citations,n5,n2\n"
        "A,50.000000,1.000000,2.000000,10,5,2\n"
        "B,30.000000,1.000000,2.000000,8,5,2\n"
        "C,20.000000,1.000000,2.000000,6,5,2\n")
    assert main(["correlate", "--scores", "flat.csv", "--x", "if", "--y", "ai",
                 "--out", "c.csv"]) == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["compute", "--help"]) == 0
    capsys.readouterr()


_STARTUP_PROBE = """
import json, sys
import eigenrank.cli
journals, citations = sys.argv[1:3]
calls = {
    "compute": ["compute", "--journals", journals, "--citations", citations,
                "--census-year", "2006", "--out", "scores.csv"],
    "ratio": ["ratio", "--scores", "scores.csv", "--group-by", "public-health",
              "--journals", journals, "--test", "mann-whitney"],
    "correlate": ["correlate", "--scores", "scores.csv", "--by-field", "--journals", journals],
    "simulate": ["simulate", "yule", "--trials", "5"],
    "plot": ["plot", "histogram", "--values", "simulation.csv", "--out", "h.svg"],
    "bigmac": ["bigmac"],
}
probe = {"import": [m for m in sys.modules if m.split(".")[0] == "scipy"]}
for name, argv in calls.items():
    probe[name] = eigenrank.cli.main(argv)
    probe["after_" + name] = [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(json.dumps(probe))
"""


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing scipy.sparse alone
    # would add about 0.2 s to every call
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, JOURNALS, CITATIONS],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["import"] == []
    for name in ("compute", "ratio", "correlate", "simulate", "plot", "bigmac"):
        assert probe[name] == 0, name
        assert probe["after_" + name] == [], name


# the bundled calls of perfbench's cli-bundled workload, in its order, each
# with the package modules it loads besides _util and errors
_CALL_MODULES = (
    (["compute", "--journals", JOURNALS, "--citations", CITATIONS, "--census-year", "2006"],
     {"corpus", "metrics"}),
    (["correlate", "--scores", "scores.csv", "--by-field", "--journals", JOURNALS],
     {"corpus", "metrics", "stats"}),
    (["ratio", "--scores", "scores.csv", "--group-by", "public-health", "--journals", JOURNALS,
      "--test", "mann-whitney"], {"corpus", "metrics", "stats"}),
    (["simulate", "journal-size"], {"metrics", "spurious", "stats"}),
    (["plot", "slopegraph", "--scores", "scores.csv", "--out", "slopegraph.svg"],
     {"metrics", "report"}),
    (["plot", "cardinal", "--scores", "scores.csv", "--top-k", "5", "--out", "cardinal.svg"],
     {"metrics", "report"}),
    (["plot", "histogram", "--values", "simulation.csv", "--out", "histogram.svg"],
     {"metrics", "report"}),
    (["plot", "ratio", "--scores", "scores.csv", "--out", "ratio.svg"],
     {"metrics", "report", "stats"}),
    (["bigmac"], {"metrics", "stats"}),
)


def test_each_subcommand_loads_only_the_modules_it_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv, modules in _CALL_MODULES:
        # -X importtime writes one stderr line for each module the call imports
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "eigenrank.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {name for name in loaded if name.startswith("eigenrank.")} == {
            f"eigenrank.{name}" for name in modules | {"_util", "errors"}}, argv[:2]


def test_the_package_imports_each_name_from_its_module_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, eigenrank\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('eigenrank', 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["eigenrank"]
    import eigenrank
    namespace = {}
    exec("from eigenrank import *", namespace)
    for name in eigenrank.__all__:
        value = getattr(eigenrank, name)
        assert vars(sys.modules[value.__module__])[name] is value is namespace[name], name
    assert set(eigenrank.__all__) < set(dir(eigenrank))
    assert set(namespace) - set(eigenrank.__all__) == {"__builtins__"}
    # perfbench reads corpus.PairedObservations
    assert corpus.PairedObservations is eigenrank.PairedObservations
    for module in (eigenrank, corpus):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name


def _module_level(nodes):
    """The nodes run when their module is imported: none inside a function."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            yield from _module_level(ast.iter_child_nodes(node))


def _package_imports(module: str) -> set[tuple[str, str]]:
    """(module, name) for each name ``module`` imports from the package at
    import time; ``*`` where it imports the module itself."""
    tree = ast.parse((SRC / "eigenrank" / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            found |= {(alias.name.removeprefix("eigenrank."), "*") for alias in node.names
                      if alias.name.startswith("eigenrank.")}
        elif isinstance(node, ast.ImportFrom):
            source = ("." * node.level + (node.module or "")).removeprefix("eigenrank")
            if source in ("", "."):  # from eigenrank import corpus
                found |= {(alias.name, "*") for alias in node.names}
            elif source.startswith("."):  # from eigenrank.corpus import CitationLedger
                found |= {(source[1:], alias.name) for alias in node.names}
    return found


def test_only_the_compute_path_imports_the_ledger_module():
    for module in ("stats", "spurious", "report", "metrics"):
        assert {source for source, _ in _package_imports(module)} <= {
            "_util", "errors", "metrics", "stats"} - {module}, module
    for module in ("report", "corpus"):
        assert not any(source == "stats" for source, _ in _package_imports(module)), module
    # each subcommand imports the rest of what it runs
    assert {source for source, _ in _package_imports("cli")} == {"_util", "errors", "metrics"}


# ---------------------------------------------------------------------------
# the CSV dialect shared by every written file
# ---------------------------------------------------------------------------

TRICKY = 'A,"1'  # an id, name or label holding a comma and a double quote


def _journals_csv():
    table = journal_table([(TRICKY, TRICKY, {TRICKY, "b"}, {2005: 3}),
                           ("B", "Beta", (), {2004: 1, 2005: 2})])
    text = write_journal_metadata(table)
    assert parse_journal_metadata(text) == table
    return text


def _citations_csv():
    ledger = citation_ledger([(TRICKY, "B", 2006, 2005, 2), ("B", TRICKY, 2006, 2004, 1)])
    text = write_citation_edges(ledger)
    assert parse_citation_edges(text) == ledger
    return text


def _scores_csv():
    text = write_scores_csv(score_table((TRICKY, "B"), ef=np.array([60.0, 40.0]),
                                        total_citations=np.array([30, 10])))
    assert write_scores_csv(read_scores_csv(text)) == text
    return text


def _correlations_csv():
    result = CorrelationResult(rho=0.5, n=3, kind="pearson")
    return write_correlations_csv(FieldCorrelations({TRICKY: result}, result, ()))


def _ratio_csv():
    Path("scores.csv").write_text(_scores_csv(), encoding="utf-8")
    assert main(["ratio", "--scores", "scores.csv", "--out", "ratio.csv"]) == 0
    return Path("ratio.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("write", [_journals_csv, _citations_csv, _scores_csv,
                                   _correlations_csv, _ratio_csv],
                         ids=["journals", "citations", "scores", "correlations", "ratio"])
def test_written_csv_quotes_commas_and_quotes(write):
    text = write()
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(row) == len(rows[0]) for row in rows)
    assert any(TRICKY in row for row in rows[1:])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    assert out.getvalue() == text
