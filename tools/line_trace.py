"""Run pytest under a line tracer and print the ``src/liealg`` statements
that never executed.

Usage, from the root of a checkout:

    python3 tools/line_trace.py [PYTEST ARGS ...] > untraced.txt

The arguments go to ``pytest.main`` unchanged, so the tier-1 suite is
``python3 tools/line_trace.py -q --continue-on-collection-errors``.
pytest runs in this process with the package under this checkout's
``src/`` first on the path; ``sys.settrace`` and ``threading.settrace``
record every line executed in a ``src/liealg`` module, and no other
frame gets a local tracer.  After the run, each statement of those
modules (found with ``ast``) that no traced line falls in is printed as
``path:line: source``, followed by a ``total`` line; a compound
statement counts by its header only.  Docstrings, ``def`` and ``class``
lines and imports are not listed, since they run at import time, which
may come before the tracer starts.  The exit code is pytest's.

The tracer is slow: the tier-1 suite (966 tests) took 363 s under it on
a two-vCPU x86-64 Linux virtual machine with Python 3.11.7, against 80 s
without.
Standard library only (pytest itself excepted).
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "liealg") + os.sep


def statements(tree: ast.Module):
    """(first, last) line of each statement's own lines: the whole of a
    simple statement, the header of a compound one."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
                ast.ImportFrom)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring, or a bare string that compiles to nothing
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield node.lineno, max(node.lineno, last)


def untraced(hits: dict) -> list[str]:
    """The statements of the package's modules with no traced line."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        with open(path) as f:
            source = f.read()
        lines = source.splitlines()
        seen = hits.get(path, set())
        for first, last in sorted(set(statements(ast.parse(source)))):
            if not seen.intersection(range(first, last + 1)):
                out.append(f"{os.path.relpath(path, ROOT)}:{first}: {lines[first - 1].strip()}")
    return out


def main(args: list[str]) -> int:
    sys.path.insert(0, SRC)
    import pytest

    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        hits.setdefault(path, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = untraced(hits)
    print("\n".join(missed))
    print(f"total {len(missed)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
