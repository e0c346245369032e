"""``tools/line_trace.py`` runs one test under its tracer and lists the
package statements that test left unrun."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILY = ROOT / "src" / "liealg" / "family.py"


def test_line_trace_lists_the_statements_one_test_leaves_unrun():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_trace.py"), "-q", "-p", "no:cacheprovider",
         "tests/test_core.py::test_bracket_family_pins"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    *head, last = run.stdout.splitlines()  # pytest's own report, the listing, the total
    assert re.fullmatch(r"total [1-9]\d*", last)
    listed = head[len(head) - int(last.split()[1]):]
    assert all(re.fullmatch(r"src/liealg/\w+\.py:\d+: \S.*", line) for line in listed)

    fn = next(node for node in ast.parse(FAMILY.read_text(encoding="utf-8")).body
              if isinstance(node, ast.FunctionDef) and node.name == "truncated_algebra")
    guard = fn.body[1]
    table = next(s for s in fn.body if isinstance(s, ast.Assign) and s.targets[0].id == "isc")
    starts = {line.split(": ", 1)[0] for line in listed}
    assert f"src/liealg/family.py:{table.lineno}" not in starts  # ``isc = {}`` ran
    assert f"src/liealg/family.py:{guard.body[0].lineno}" in starts  # the n < 0 raise did not
