"""``tools/code_lines.py`` runs and prints one count per module and their sum."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_code_lines_counts_every_module_and_the_total():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    *modules, total = [line.split() for line in run.stdout.splitlines()]
    assert [name for name, _ in modules] == sorted(
        p.stem for p in (ROOT / "src" / "liealg").glob("*.py"))
    counts = [int(count) for _, count in modules]
    assert all(count > 0 for count in counts)
    assert total == ["total", str(sum(counts))]
