"""The package imports nothing outside the standard library and itself,
and its records are NamedTuples, so a CLI process never loads
``dataclasses`` (or the ``inspect`` that it imports)."""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "liealg"


def _imported(path):
    """(line, module name) of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    allowed = sys.stdlib_module_names | {"liealg"}
    outside = [f"{path.name}:{line}: {name}" for path in modules
               for line, name in _imported(path) if name.partition(".")[0] not in allowed]
    assert outside == []


def test_no_module_imports_dataclasses():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
             for line, name in _imported(path) if name.partition(".")[0] == "dataclasses"]
    assert found == []


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    probe = ("import sys, liealg.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "[]"
