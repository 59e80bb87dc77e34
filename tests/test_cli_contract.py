"""The CLI's input contract under mutation fuzzing: each subcommand that
reads a file gets the bundled inputs with 1-3 byte edits, and every call
must keep the documented exit codes, leave no file and no stdout behind
when it fails, and name the file (and, but for the whole-file message
below, the line) of every data error, or both files of a cross-file one."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from eigenrank import (compute_metrics, parse_citation_edges, parse_journal_metadata, spurious,
                       write_scores_csv)
from eigenrank.cli import main

DATA = Path(__file__).parent / "data"


def _bundled_inputs() -> dict[str, bytes]:
    """The bundled journals.csv and citations.csv, the scores.csv computed
    from them, and a simulation CSV for ``plot histogram --values``."""
    journals, citations = ((DATA / name).read_text() for name in ("journals.csv", "citations.csv"))
    scores, _ = compute_metrics(parse_journal_metadata(journals), parse_citation_edges(citations),
                                2006)
    spec = spurious.spec_from_cv("lognormal", 0.1)
    simulation = spurious.simulate_ossuary(spec, spec, spec, n_bones=50, trials=30, seed=0)
    return {"journals.csv": journals.encode(), "citations.csv": citations.encode(),
            "scores.csv": write_scores_csv(scores).encode(),
            "simulation.csv": spurious.write_simulation_csv(simulation).encode()}


_INPUTS = _bundled_inputs()

# each call's arguments, with {name} standing for the path of an input or output
_CALLS = (
    ["compute", "--journals", "{journals.csv}", "--citations", "{citations.csv}",
     "--census-year", "2006", "--out", "{out.csv}"],
    ["correlate", "--scores", "{scores.csv}", "--by-field", "--journals", "{journals.csv}",
     "--out", "{out.csv}"],
    ["ratio", "--scores", "{scores.csv}", "--group-by", "public-health", "--journals",
     "{journals.csv}", "--test", "mann-whitney", "--out", "{out.csv}", "--report", "{out.txt}"],
    ["plot", "slopegraph", "--scores", "{scores.csv}", "--out", "{out.svg}"],
    ["plot", "histogram", "--values", "{simulation.csv}", "--out", "{out.svg}"],
    ["correlate", "--scores", "{scores.csv}", "--out", "{out.csv}"],
    # every scores.csv that rank_comparison accepts has 2 journals
    ["plot", "cardinal", "--scores", "{scores.csv}", "--top-k", "2", "--out", "{out.svg}"],
    ["plot", "ratio", "--scores", "{scores.csv}", "--out", "{out.svg}"],
)

# the bytes an edit inserts: quote, CR, LF, comma, a byte that is not UTF-8,
# a byte-order mark, NUL, a number past int64, an exponent and a point
_INSERTS = (b'"', b"\r", b"\n", b",", b"\xff", b"\xef\xbb\xbf", b"\0", b"9" * 25, b"e5", b".")

# messages that name their file but no line, each for the reason given
_WHOLE_FILE = (
    # the column holds no value at all, so no one line is at fault
    r"no values in column 'rho'$",
)

# messages that name both input files and no line: the two are at fault together
_CROSS_FILE = (
    # journals.csv gives a journal no articles in the window, and
    # citations.csv cites it in the window
    r"\d+ journal\(s\) received citations but published no articles in the window",
    # the scores' journals are all in, or all out of, the field journals.csv gives
    r"field 'public-health' does not split the journals",
)


@st.composite
def _edited_calls(draw):
    """A call and its inputs, 1-3 byte edits made to them: a deletion, a
    truncation or an insertion, each at any position of one input."""
    argv = draw(st.sampled_from(_CALLS))
    files = {name: _INPUTS[name] for name in _INPUTS if "{" + name + "}" in argv}
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(files)))
        data = files[name]
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("delete", "truncate") + _INSERTS))
        files[name] = (data[:at] + data[at + 1:] if edit == "delete" else
                       data[:at] if edit == "truncate" else data[:at] + edit + data[at:])
    return argv, files


def _with(argv: list[str], name: str, data: bytes):
    """The call ``argv`` with its bundled inputs, input ``name`` made ``data``."""
    return argv, {**{key: _INPUTS[key] for key in _INPUTS if "{" + key + "}" in argv}, name: data}


_JOURNALS = _INPUTS["journals.csv"]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(call=_edited_calls())
# a quoted CR in a field label (three insertions above), in an id, and in the
# name of a journal with one row, which the parsed table would refuse with no
# line; then each message that names no line: a truncation after F's first
# row and a deletion that moves its year out of the window; and truncations
# before the first public-health journal and after "0,"
@example(call=_with(_CALLS[1], "journals.csv", _JOURNALS.replace(
    b"medicine;public-health,2001,18", b'"medicine;public\r-health",2001,18', 1)))
@example(call=_with(_CALLS[0], "citations.csv", _INPUTS["citations.csv"].replace(
    b"A,B,2006,2005,12", b'"A\rX",B,2006,2005,12', 1)))
@example(call=_with(_CALLS[0], "journals.csv", _JOURNALS + b'G,"Ga\rmma",medicine,2005,1\n'))
@example(call=_with(_CALLS[0], "journals.csv", _JOURNALS[:_JOURNALS.index(b"2001,8\n") + 7]
                    .replace(b"2001,8", b"200,8")))
@example(call=_with(_CALLS[2], "journals.csv", _JOURNALS[:_JOURNALS.index(b"\nC,") + 1]))
@example(call=_with(_CALLS[4], "simulation.csv", b"trial,rho\n0,"))
def test_edited_inputs_keep_the_cli_contract(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in (*files, "out.csv", "out.txt", "out.svg")}
        for name, data in files.items():
            Path(paths[name]).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([re.sub(r"\{(.*)\}", lambda m: paths[m[1]], arg) for arg in argv])
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            return
        assert sorted(p.name for p in Path(tmp).iterdir()) == sorted(files)
        assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    message = err.getvalue().removeprefix("error: ")
    if code == 2:
        path = next((paths[name] for name in files if message.startswith(paths[name] + ": ")),
                    None)
        if path is None:  # both inputs, in the order the call names them
            lead = ", ".join(paths[m[1]] for arg in argv
                             if (m := re.fullmatch(r"\{(.*)\}", arg)) and m[1] in files) + ": "
            assert message.startswith(lead), message
            assert any(re.match(pattern, message[len(lead):]) for pattern in _CROSS_FILE), message
        else:
            rest = message[len(path) + 2:]
            assert (re.match(r"line \d+: ", rest)
                    or any(re.match(pattern, rest) for pattern in _WHOLE_FILE)), message
