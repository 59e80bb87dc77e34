import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenrank import spurious
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
    assert capsys.readouterr().err == f"error: {message}\n"


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
    for column, message in (("nope", "v.csv: no column 'nope'"),
                            ("rho", "line 3: malformed rho 'abc'")):
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
              "--census-year", "2006"], "line 2: field larger than field limit (131072)"),
            (["compute", "--journals", "long_j.csv", "--citations", CITATIONS,
              "--census-year", "2006"],
             f"line {journal_lines + 1}: field larger than field limit (131072)"),
            (["correlate", "--scores", "long_s.csv"],
             "line 2: field larger than field limit (131072)"),
            (["plot", "histogram", "--values", "long_v.csv", "--out", "h.svg"],
             "line 3: field larger than field limit (131072)")):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not Path("scores.csv").exists() and not Path("correlations.csv").exists()
    assert not Path("h.svg").exists()


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


def test_empty_histogram_input_is_a_data_error(capsys):
    Path("empty.csv").write_text("trial,rho\n0,\n")
    Path("nan.csv").write_text("trial,rho\n0,0.5\n1,nan\n")
    Path("inf.csv").write_text("trial,rho\n0,inf\n1,0.5\n")
    for name, message in (("empty.csv", "empty.csv: no values in column 'rho'"),
                          ("nan.csv", "line 3: malformed rho 'nan'"),
                          ("inf.csv", "line 2: malformed rho 'inf'")):
        assert main(["plot", "histogram", "--values", name, "--out", "h.svg"]) == 2
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
