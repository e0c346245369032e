"""Print in-process best-of-N times of the invariant-form solver, of the
self-duality search, of the derivation solver and of ``analyze``.

Usage, from the root of a checkout:

    python3 tools/solver_times.py [REPEAT] > times.txt

The inputs are built with ``perfbench/inputs.py`` and written to a
temporary directory:

- rotated A9, A12, A15 and A18: the family member in the basis of
  ``unimodular(random.Random(3), dim)``, with the canonical metric (b = 1)
  carried along;
- A30, A60, A90, A150 and A300 with the canonical metric (b = 1);
- Abelian tables of dimension 40 and 80;
- the benchmark's non-metric inputs: A4, A5, A7, h3, W10 (the family
  with the identity hat, n = 10), and A4, A5 and the larger A14 in the
  basis of ``workloads.signed_rotation`` (stream
  ``nonmetric-search:a<n>#0``, signs from ``random.Random(7)``).

Each line gives the input, the best of REPEAT runs (default 3) of
``invariant_form_space``, of ``is_self_dual``, of ``derivation_space``
and of ``cli.main(["analyze", FILE])``, in milliseconds.  Derivations
are timed on rotated A9, rotated A12, A30 and Abelian d = 40 only
(``DERIVED``; rotated A15 takes about 12 s) and read ``-`` elsewhere.
Each solver runs on a fresh copy of the loaded algebra whose generating
set (and so its Jacobi check) is computed before the timer starts, so
the derivations include their center solve.  ``is_self_dual`` runs on
the copy the form solve just ran on, with nothing of it kept: its time
is its own form solve plus the center lemma and the determinants of its
search, so the search cost is the self-dual column minus the forms
column.
``analyze`` runs with the load memo cleared and its output discarded,
so each run is a first computation on a freshly loaded algebra.  Run it
in two checkouts and compare the lines.  Standard library only.
"""

import contextlib
import io
import os
import random
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from liealg import cli  # noqa: E402
from liealg import io as lio  # noqa: E402
from liealg.core import LieAlgebra  # noqa: E402
from liealg.selfdual import invariant_form_space, is_self_dual  # noqa: E402

# the inputs whose derivation space is timed
DERIVED = {"rotated A9", "rotated A12", "A30", "Abelian d=40"}


def cases():
    """(name, algebra, metric grid or None) for every input."""
    for n in (9, 12, 15, 18):
        p = inputs.unimodular(random.Random(3), n + 1)
        yield (f"rotated A{n}", inputs.rotate(inputs.family(n), p),
               inputs.congruent(inputs.canonical_metric(n), p))
    for n in (30, 60, 90, 150, 300):
        yield f"A{n}", inputs.family(n), inputs.canonical_metric(n)
    for d in (40, 80):
        yield f"Abelian d={d}", inputs.Algebra(d, {}), None
    for n in (4, 5, 7):
        yield f"A{n}", inputs.family(n), None
    yield "h3", inputs.heisenberg(), None
    yield "W10", inputs.family(10, reduce=lambda x: x), None
    for n in (4, 5, 14):
        p = workloads.signed_rotation(f"nonmetric-search:a{n}#0", n + 1, random.Random(7))
        yield f"rotated A{n}", inputs.rotate(inputs.family(n), p), None


def best(run, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def solve_once(alg: LieAlgebra, *solvers) -> list[float]:
    """The seconds of each solver, in turn, on one fresh copy of alg."""
    fresh = LieAlgebra._of_cleared(alg.field, alg.dim, alg._scale, alg._isc,
                                   alg.labels, alg.grading)
    fresh._generators()
    seconds = []
    for solver in solvers:
        start = time.perf_counter()
        solver(fresh)
        seconds.append(time.perf_counter() - start)
    return seconds


def analyze_once(path: str):
    lio._parse.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["analyze", path])


def main() -> int:
    repeat = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    with tempfile.TemporaryDirectory(prefix="liealg-times-") as work:
        print(f"{'input':<16} {'forms ms':>10} {'self-dual ms':>13} {'derivations ms':>15} "
              f"{'analyze ms':>11}")
        for name, alg, metric in cases():
            path = os.path.join(work, "input.json")
            inputs.write_json(path, inputs.algebra_document(alg, metric))
            loaded, _ = lio.load_algebra(path)
            forms, dual = map(min, zip(*(solve_once(loaded, invariant_form_space, is_self_dual)
                                         for _ in range(repeat))))
            derived = "-"
            if name in DERIVED:
                (seconds,) = min(solve_once(loaded, LieAlgebra.derivation_space)
                                 for _ in range(repeat))
                derived = f"{seconds * 1e3:.1f}"
            analyze = best(lambda: analyze_once(path), repeat)
            print(f"{name:<16} {forms * 1e3:>10.1f} {dual * 1e3:>13.1f} {derived:>15} "
                  f"{analyze * 1e3:>11.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
