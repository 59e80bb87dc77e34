"""Run the one-token mutants of named functions of ``src/eigenrank`` against
their tests, and list the mutants that no test kills.

A function is named as ``module.qualified.name``, for example
``corpus.JournalTable.__init__`` or ``_util.CsvRows.int_cell``.  In its
body each comparison operator is flipped (``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=``, ``in`` and ``not in``), and each integer
constant is moved by +1 and by -1: one change, one mutant.  The mutated
function is written back in place of the original (``ast.unparse``), one
mutant at a time, in a temporary copy of ``src``, ``tests`` and
``pyproject.toml`` made when the run starts (so an edit to the working
tree during a run changes no mutant), and the test files run there with
``-x``.  A failing run (or one over the time limit) kills the mutant.
For each mutant it prints the line, the change and killed or survived,
then the totals.  The unmutated function, written back the same way,
must pass first.

Usage, from the repository root::

    python tools/mutants.py FUNCTION [FUNCTION ...] [--tests PATH ...]

``--tests`` names the owning test files (default: ``tests``).  It uses only
the standard library and runs pytest in a child process.  It exits 1 if a
mutant survives.  It is a report, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "eigenrank"
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in"}
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In}


def find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    """The function or method ``qualname`` (dotted, classes first) of ``tree``."""
    node = tree
    for name in qualname.split("."):
        node = next((child for child in ast.iter_child_nodes(node)
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == name),
                    None)
        if node is None:
            raise SystemExit(f"no function or class {name!r} in {qualname!r}")
    return node


def mutations(function: ast.FunctionDef) -> Iterator[tuple[int, str]]:
    """Change ``function`` in place one token at a time: each change is made,
    its line and description yielded, and then undone."""
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    node.ops[k] = FLIPS[type(op)]()
                    yield node.lineno, f"{SYMBOLS[type(op)]} -> {SYMBOLS[type(node.ops[k])]}"
                    node.ops[k] = op
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            value = node.value
            for moved in (value + 1, value - 1):
                node.value = moved
                yield node.lineno, f"{value} -> {moved}"
            node.value = value


def splice(lines: list[str], function: ast.FunctionDef) -> str:
    """The module ``lines`` with ``function``'s lines replaced by its code as
    ``function`` now stands."""
    start = min([function.lineno] + [d.lineno for d in function.decorator_list])
    code = textwrap.indent(ast.unparse(function), " " * function.col_offset)
    return "".join(lines[:start - 1]) + code + "\n" + "".join(lines[function.end_lineno:])


def run_tests(work: Path, tests: list[str], timeout: float | None) -> tuple[bool, float]:
    """Whether the ``tests`` pass in ``work``, and how long they took."""
    began = time.perf_counter()
    try:
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        status = None
    return status == 0, time.perf_counter() - began


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="+", metavar="FUNCTION")
    parser.add_argument("--tests", nargs="+", default=["tests"])
    args = parser.parse_args(argv)
    killed = survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        for name in args.functions:
            module, qualname = name.split(".", 1)
            path = PACKAGE / f"{module}.py"
            original = (work / path).read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            function = find(ast.parse(original), qualname)
            (work / path).write_text(splice(lines, function), encoding="utf-8")
            passed, took = run_tests(work, args.tests, None)
            if not passed:
                print(f"{name}: the tests fail without a mutant; nothing to measure")
                return 2
            for line, change in mutations(function):
                (work / path).write_text(splice(lines, function), encoding="utf-8")
                passed, _ = run_tests(work, args.tests, 5 * took + 10)
                killed, survived = killed + (not passed), survived + passed
                print(f"{path}:{line}: {qualname}: {change}: "
                      f"{'survived' if passed else 'killed'}", flush=True)
            (work / path).write_text(original, encoding="utf-8")
    print(f"{killed + survived} mutants: {killed} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
