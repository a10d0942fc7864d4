#!/usr/bin/env python3
"""List the statements of src/pexpfan/ that a pytest run never executes.

    python3 scripts/unreached_lines.py [pytest args]

Runs pytest in-process (default arguments: ``-q``) under ``sys.settrace``
and ``threading.settrace``, recording the lines executed in src/pexpfan/,
and prints ``path:line: statement`` for every statement that never ran.
Docstrings and other constant expressions, ``def``, ``class`` and import
statements are not listed.  A compound statement counts as run when a line
of its header ran.  The exit code is pytest's.

Needs only the standard library, pytest and hypothesis (the tests use it):
it loads a hypothesis profile without the ``explain`` phase, which installs
a tracer of its own, and without deadlines, which tracing would exceed.
Code that runs only in a subprocess, such as the CLI run through
``python -m pexpfan``, is not seen; a test with a wall-clock bound may fail
under the tracer.  A full run takes about four to five times as long as the
plain suite.
"""
import ast
import os
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "pexpfan"


def statements(path: Path):
    """(first line, lines that count as running it, source line) of each
    listed statement of the file."""
    source = path.read_text()
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1), lines[node.lineno - 1].strip()


class HypothesisProfile:
    """Loaded before the test modules are, so their settings inherit it."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import Phase, settings

        settings.register_profile(
            "unreached", phases=[p for p in Phase if p is not Phase.explain], deadline=None)
        settings.load_profile("unreached")


def main() -> int:
    # the package under src/, for this process and for the ones the tests start
    src = str(REPO / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(sys.argv[1:] or ["-q"], plugins=[HypothesisProfile])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for name, line in hits if name == str(path)}
        for first, span, text in sorted(statements(path)):
            if ran.isdisjoint(span):
                print(f"{path.relative_to(REPO)}:{first}: {text}")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
