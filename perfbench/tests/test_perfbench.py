"""Fast tests of the benchmark itself, on small generated corpora.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gencorpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
SMALL = {"n_journals": 60, "n_rows": 4000}


def test_generator_is_deterministic():
    first = gencorpus.generate(7, **SMALL)
    again = gencorpus.generate(7, **SMALL)
    other = gencorpus.generate(8, **SMALL)
    assert first[:2] == again[:2]
    assert first[1] != other[1]


def test_generated_corpus_is_consistent_and_has_fixed_shares():
    journals_csv, citations_csv, stats = gencorpus.generate(3, **SMALL)
    journals = list(csv.DictReader(io.StringIO(journals_csv)))
    citations = list(csv.DictReader(io.StringIO(citations_csv)))
    ids = {r["journal_id"] for r in journals}
    assert len(ids) == SMALL["n_journals"] and len(citations) == SMALL["n_rows"]
    assert {r["citing_id"] for r in citations} | {r["cited_id"] for r in citations} <= ids
    years = {(r["journal_id"], int(r["year"])): int(r["articles"]) for r in journals}
    assert all(years[(j, y)] >= 1 for j in ids for y in gencorpus.YEARS)

    census, lo = gencorpus.CENSUS_YEAR, gencorpus.CENSUS_YEAR - gencorpus.WINDOW
    windowed = [r for r in citations if int(r["citing_year"]) == census
                and lo <= int(r["cited_year"]) < census]
    future = [r for r in citations if int(r["cited_year"]) > int(r["citing_year"])]
    self_cites = [r for r in citations if r["citing_id"] == r["cited_id"]]
    counts = stats["row_counts"]
    assert len(windowed) == stats["rows_windowed"]
    assert len(future) == counts["future_dated"] == round(SMALL["n_rows"] * gencorpus.FUTURE_DATED_SHARE)
    assert len(self_cites) == counts["self_in_window"] == round(SMALL["n_rows"] * gencorpus.SELF_SHARE)
    assert all(r in windowed for r in self_cites)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],   # overlaps a: the union of a and b is 1..6
        ["c", 2.0, 3.0, 1],   # grandchild: counts against a, not root
        ["d", 8.0, 12.0, 0],  # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    summary = tracing.summarize([{"spans": spans, "counts": {"x": 2}},
                                 {"spans": [["a", 0.0, 1.0, None]], "counts": {"x": 1}}])
    assert summary["layers"]["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert summary["counts"] == {"x": 3}
    assert summary["top_level_s"] == pytest.approx(11.0)


def test_install_lists_the_functions_the_package_lacks(monkeypatch):
    for name in [n for n in sys.modules if n == "eigenrank" or n.startswith("eigenrank.")]:
        monkeypatch.delitem(sys.modules, name)
    corpus = types.ModuleType("eigenrank.corpus")

    def parse_journal_metadata(text):
        return text

    class CitationLedger:  # has validate, but no __iter__
        def validate(self):
            return "ok"

    corpus.parse_journal_metadata, corpus.CitationLedger = parse_journal_metadata, CitationLedger
    monkeypatch.setitem(sys.modules, "eigenrank.corpus", corpus)
    tracer = tracing.Tracer()
    tracer.install()
    assert corpus.parse_journal_metadata("x") == "x"
    assert CitationLedger().validate() == "ok"
    assert "corpus.parse_journal_metadata" not in tracer.missing
    assert {"corpus.parse_citation_edges", "metrics.compute_metrics",
            "corpus.CitationLedger.__iter__"} <= set(tracer.missing)
    assert "corpus.CitationLedger.validate" not in tracer.missing
    summary = tracing.summarize([tracer.take()])
    assert summary["layers"]["corpus.validate"]["calls"] == 1
    assert summary["missing"] == sorted(tracer.missing)


def test_calibration_scales_by_the_probes_around_a_call():
    ref = calibrate.REFERENCE_MS
    assert calibrate.calibrated(1.5, [ref, ref]) == pytest.approx(1.5)
    # a host at half speed: the probes and the call both take twice as long
    assert calibrate.calibrated(3.0, [2 * ref] * 3) == pytest.approx(1.5)
    # the median: one sample disturbed by an interrupt does not count
    assert calibrate.calibrated(3.0, [2 * ref, 2 * ref, 9 * ref]) == pytest.approx(1.5)
    assert len(calibrate.samples()) == calibrate.SAMPLES_AT_ENDS
    assert calibrate.probe_ms() > 0


def test_probe_samples_taken_while_a_child_runs(tmp_path):
    probes = []
    result = run.run_process([sys.executable, "-c", "import time; time.sleep(0.5)"],
                             tmp_path, probes)
    assert result["exit"] == 0 and 0.5 <= result["wall_s"] < 0.5 + run.SAMPLE_INTERVAL_S
    assert len(probes) >= 1 and all(ms > 0 for ms in probes)


def test_runner_does_not_load_numpy():
    # a child's peak RSS starts from the runner's own, so the runner stays small
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_metric_names_are_valid_and_all_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)

    summary = tracing.summarize([{"spans": [["cli.main", 0.0, 1.0, None]], "counts": {}}])
    fake = {"setup_s": [1.0], "rows_per_pass": 10, "probes": {"interpreter_s": 0.1, "import_s": 0.5},
            "untraced": [{"wall_s": 2.0, "raw_wall_s": 2.2, "calls": [1.0, 1.0], "rss_mb": 90.0,
                          "probe_ms": [9.0, 9.5, 9.0]}],
            "traced": [{"wall_s": 2.5, "raw_wall_s": 2.4, "calls": [1.0], "rss_mb": 90.0,
                        "probe_ms": [9.0, 9.0], "summary": summary}]}
    tally = run.Tally()
    tally.record("op", None)
    assert set(run.end_to_end(fake, tally)) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.per_layer(fake)) == {m["name"] for m in spec["per_layer"]}


@pytest.fixture()
def small_corpus(tmp_path):
    stats = gencorpus.write_corpus(tmp_path / "corpus", 5, **SMALL)
    return tmp_path, stats


def test_traced_cli_call_writes_identical_output(small_corpus):
    tmp, stats = small_corpus
    args = ["compute", "--journals", str(tmp / "corpus" / "journals.csv"),
            "--citations", str(tmp / "corpus" / "citations.csv"), "--census-year", "2006"]
    plain, traced = tmp / "plain", tmp / "traced"
    plain.mkdir()
    traced.mkdir()
    subprocess.run([sys.executable, "-m", "eigenrank.cli", *args], cwd=plain, env=ENV,
                   check=True, capture_output=True)
    subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(tmp / "spans.json"),
                    "--", *args], cwd=traced, env=ENV, check=True, capture_output=True)
    assert (plain / "scores.csv").read_bytes() == (traced / "scores.csv").read_bytes()
    assert run.check_scores(traced / "scores.csv") is None

    record = json.loads((tmp / "spans.json").read_text(encoding="utf-8"))
    summary = tracing.summarize([record])
    assert summary["counts"]["corpus.rows_in"] == SMALL["n_rows"]
    assert summary["counts"]["corpus.rows_windowed"] == stats["rows_windowed"]
    assert summary["layers"]["corpus.validate"]["calls"] == 3
    assert summary["layers"]["metrics.compute"]["self_s"] >= 0
    assert summary["missing"] == []  # every listed function is wrapped


def test_traced_analysis_pass_gives_equal_digests(small_corpus):
    tmp, _ = small_corpus
    subprocess.run([sys.executable, "-m", "eigenrank.cli", "compute",
                    "--journals", str(tmp / "corpus" / "journals.csv"),
                    "--citations", str(tmp / "corpus" / "citations.csv"),
                    "--census-year", "2006"], cwd=tmp, env=ENV, check=True, capture_output=True)
    subprocess.run([sys.executable, str(HERE / "analysis.py"), "--scores", str(tmp / "scores.csv"),
                    "--journals", str(tmp / "corpus" / "journals.csv"),
                    "--seconds", "0", "--trace", "1", "--result", str(tmp / "result.json")],
                   cwd=tmp, env=ENV, check=True, capture_output=True)
    result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))

    def digests(record):
        assert all(op["error"] is None for op in record["ops"])
        return {op["name"]: op["sha256"] for op in record["ops"]}

    assert digests(result["untraced"][0]) == digests(result["traced"][0])
    spans = {name for name, *_ in result["traced"][0]["trace"]["spans"]}
    assert {"stats.per_field", "spurious.ossuary", "report.slopegraph"} <= spans
    assert result["traced"][0]["trace"]["missing"] == []
