"""List the lines of ``src/eigenrank`` that no test runs.

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``), recording every line executed in a module of
``src/eigenrank``.  A module's executable lines are those of its compiled
code objects (``co_lines()``, nested functions and classes included).  For
each module it prints the lines no test ran, with their text, then the
totals.  Lines that run only in a subprocess (such as ``cli.py``'s
``__main__`` block) are listed too, since a child process is not traced.

Usage, from the repository root (about a minute over tier-1)::

    python tools/line_reach.py [pytest arguments, default: -q -p no:cacheprovider tests]

It uses only the standard library and pytest, and exits with pytest's
status.  It is a report, not a test: pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eigenrank"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold code, from its compiled code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 (a module's first instruction) and None hold no source
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status for ``args``, and the lines run in each module."""
    import pytest

    modules = {str(path): path for path in SRC.glob("*.py")}
    seen: dict[str, Path | None] = {}  # a code file name to its module, or None
    ran: dict[Path, set[int]] = {path: set() for path in modules.values()}

    def module(filename: str) -> Path | None:
        if filename not in seen:
            seen[filename] = modules.get(os.path.realpath(filename))
        return seen[filename]

    def trace(frame, event, arg):  # a new frame: trace it only in a module of SRC
        path = module(frame.f_code.co_filename)
        if path is None:
            return None
        lines = ran[path]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local(frame, event, arg)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    status, ran = run(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    total = unrun = 0
    for path in sorted(ran):
        lines = executable_lines(path)
        missed = sorted(lines - ran[path])
        total, unrun = total + len(lines), unrun + len(missed)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines in {SRC.relative_to(ROOT)} not run "
          f"(pytest exit status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
