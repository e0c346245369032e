"""Screen a change against another checkout: answers, benchmark passes and solver rows.

Usage, from the root of a checkout:

    python3 tools/paired_passes.py PARENT_CHECKOUT [ROUNDS] > ratios.txt

The ``liealg`` packages under PARENT_CHECKOUT/src and this checkout's
``src/`` are both imported into this process, each with its own table
of ``liealg*`` modules, put in ``sys.modules`` before each of its calls
so that the CLI's imports inside functions resolve to the same tree.
Both trees share every moment of the host, which separate processes
run at different times do not, so small changes show.  This screens a
change; the perfbench protocol (``perfbench/run.py`` runs of each
checkout) judges it.  Standard library only.

Answer check: on each ``perfbench`` workload at seeds 7 and 8, each tree
runs one pass and then a second under the same import, where every load
hits the memo.  If the exit code, stdout or output-file bytes of a
request differ between the trees or between the passes, the script
names it on stderr and exits 1.

Then ROUNDS (default 10, at least 2) rounds time a fresh import, each
pass and each solver column on both trees, the trees alternating and
the first flipping every round, with the ``load_algebra`` memo cleared
before each pass and each ``analyze`` call.  Each line gives both
trees' medians and the median, quartiles and win count of the per-round
ratio (this checkout / the parent); a run against a copy of the same
tree gives the baseline.  The calls:

- ``import liealg.cli``: ``load`` of the tree's ``src``, k calls per
  round sized as for the solver rows below, the trees alternating call
  by call.  No bytecode is written or read (``sys.pycache_prefix``
  names no directory), so each call compiles the tree from source, as
  perfbench's set-up does in a fresh checkout, whatever ``__pycache__``
  either tree holds.  The passes and solver rows then install and run
  the modules loaded at the start;
- one pass of each workload at seed 7.  No output file of any request
  exists when a pass starts, as after perfbench's set-up: truncating
  an output rewritten moments before took about 60 ms a file on one
  host, against microseconds to create it, so rotated-dense passes
  were mostly filesystem stalls (and a tree that writes no file would
  be read the other tree's in the answer check);
- the solver rows, on the inputs of ``cases()``: ``analyze``, that is
  ``cli.main(["analyze", FILE])`` on a fresh load, output discarded;
  ``forms``, ``invariant_form_space`` on a fresh copy of the algebra
  whose generating set (and so its Jacobi check) is computed untimed;
  ``self-dual``, ``is_self_dual`` on another such copy, so its search
  costs self-dual minus forms; and on the ``DERIVED`` inputs
  ``derivations``, ``derivation_space`` on another such copy, center
  solve included (rotated A15 takes ~12 s).  One call of a
  sub-millisecond row cannot resolve a 10 % change, so a round makes k
  calls of a column per tree, each on its own fresh load or copy, the
  trees alternating call by call, and reports the mean per call.  k is
  the least count whose calls last ``TARGET`` (20 ms) at the time of
  one untimed call on the parent tree per input and column, and both
  trees use that k.  The collector runs before each call, so the
  collections inside a call fall at the same points on both trees
  (else a full collection lands on one tree's call by round parity);
  the objects of both imports are frozen once (``gc.freeze``), so that
  costs microseconds.

A row whose single call lasts 20 ms or more (so k = 1) resolves about
10 %, not 5 %, on a shared two-vCPU virtual machine: an A/A run of one
tree against a copy of itself spread such rows (A300, Abelian d = 40
and 80) past [0.95, 1.05], where the host, not the pairing, sets the
spread.
"""

import contextlib
import gc
import importlib
import io
import itertools
import math
import os
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave both checkouts' trees as they are
sys.pycache_prefix = os.devnull  # and read no cached bytecode of either

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# the inputs whose derivation space is timed
DERIVED = {"rotated A9", "rotated A12", "A30", "Abelian d=40"}
# the least time, in seconds, that a round's k calls of a solver column last
TARGET = 0.02


def _install(modules: dict) -> None:
    """Make ``modules`` the only ``liealg*`` entries of ``sys.modules``."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "liealg"]:
        del sys.modules[name]
    sys.modules.update(modules)


def load(src: str) -> dict:
    """The ``liealg*`` modules of the package under ``src``, freshly imported."""
    _install({})
    sys.path.insert(0, src)
    try:
        importlib.invalidate_caches()
        cli = importlib.import_module("liealg.cli")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"liealg imported from {cli.__file__}, not from {src}")
    return {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "liealg"}


def timed(call, *args) -> float:
    start = time.perf_counter()
    call(*args)
    return time.perf_counter() - start


def ready(modules: dict, requests):
    """The tree's ``cli``, installed, with no request's output file left to rewrite."""
    _install(modules)
    for req in requests:
        for path in req.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    return modules["liealg.cli"]


def check_answers(trees: dict) -> list[str]:
    """Every request whose answer differs between the trees or between two passes."""
    differing = []
    for name, seed in itertools.product(sorted(workloads.WORKLOADS), (7, 8)):
        with tempfile.TemporaryDirectory(prefix="liealg-paired-") as work:
            requests = workloads.build(name, seed, work)
            for modules in trees.values():
                modules["liealg.io"]._parse.cache_clear()
            first, second = ({tree: [(r.code, r.stdout, r.files)
                                     for r in run.run_pass(ready(mods, requests), requests)]
                              for tree, mods in trees.items()} for _ in range(2))
        for i, req in enumerate(requests):
            where = f"{name} seed {seed} {req.label}"
            if first["change"][i] != first["parent"][i]:
                differing.append(f"{where}: the trees answer differently")
            differing += [f"{where}: the {tree} tree's second pass differs from its first"
                          for tree in trees if second[tree][i] != first[tree][i]]
    return differing


def alternate(trees: dict, rounds: int, measure) -> dict:
    """``measure(modules)`` (a list of seconds) per tree and round, the first tree flipping."""
    seconds = {tree: [] for tree in trees}
    for r in range(rounds):
        for tree in ("change", "parent") if r % 2 == 0 else ("parent", "change"):
            _install(trees[tree])
            trees[tree]["liealg.io"]._parse.cache_clear()
            gc.collect()
            seconds[tree].append(measure(trees[tree]))
    return seconds


def report(label: str, seconds: dict, column: int, scale: float, unit: str) -> None:
    change = [s[column] for s in seconds["change"]]
    parent = [s[column] for s in seconds["parent"]]
    ratios = [c / p for c, p in zip(change, parent)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"{label:<30} change/parent {median:.3f} [{q1:.3f}, {q3:.3f}] "
          f"faster {sum(x < 1 for x in ratios)}/{len(ratios)}  "
          f"parent {statistics.median(parent) * scale:.4g} {unit}  "
          f"change {statistics.median(change) * scale:.4g} {unit}", flush=True)


def import_seconds(srcs: dict, rounds: int) -> dict:
    """Mean seconds per ``load`` of each tree's ``src``, per round, laid out as
    ``alternate`` gives them; the first tree flips every call and every round."""
    k = max(1, math.ceil(TARGET / timed(load, srcs["parent"])))
    seconds = {tree: [] for tree in srcs}
    for r in range(rounds):
        totals = dict.fromkeys(srcs, 0.0)
        for j in range(k):
            for tree in ("change", "parent") if (r + j) % 2 == 0 else ("parent", "change"):
                gc.collect()
                totals[tree] += timed(load, srcs[tree])
        for tree in srcs:
            seconds[tree].append([totals[tree] / k])
    return seconds


def cases():
    """(name, algebra, metric grid or None) of every solver row; rotated rows without
    a metric are in the basis of the nonmetric-search workload's rotation."""
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


def solver_calls(modules: dict, path: str, derive: bool) -> list:
    """(fresh, call) per solver column of the installed tree: ``call(fresh())``
    is one call, on a fresh load or on a fresh copy made by ``fresh``."""
    cli, core, selfdual = (modules[f"liealg.{m}"] for m in ("cli", "core", "selfdual"))
    alg, _ = modules["liealg.io"].load_algebra(path)

    def copy():
        out = core.LieAlgebra._of_cleared(alg.field, alg.dim, alg._scale, alg._isc,
                                          alg.labels, alg.grading)
        out._generators()
        return out

    columns = [(modules["liealg.io"]._parse.cache_clear, lambda _: cli.main(["analyze", path])),
               (copy, selfdual.invariant_form_space), (copy, selfdual.is_self_dual)]
    if derive:
        columns.append((copy, core.LieAlgebra.derivation_space))
    return columns


def solver_rows(trees: dict, rounds: int, path: str, derive: bool) -> dict:
    """Mean seconds per call of each solver column, per tree and round, laid
    out as ``alternate`` gives them; the first tree flips every call and every
    round."""
    columns = {}
    for tree, modules in trees.items():
        _install(modules)
        columns[tree] = solver_calls(modules, path, derive)
    _install(trees["parent"])
    counts = [max(1, math.ceil(TARGET / timed(call, fresh())))
              for fresh, call in columns["parent"]]
    seconds = {tree: [] for tree in trees}
    for r in range(rounds):
        totals = {tree: [0.0] * len(counts) for tree in trees}
        for c, k in enumerate(counts):
            for j in range(k):
                for tree in ("change", "parent") if (r + j) % 2 == 0 else ("parent", "change"):
                    _install(trees[tree])
                    fresh, call = columns[tree][c]
                    arg = fresh()
                    gc.collect()
                    totals[tree][c] += timed(call, arg)
        for tree in trees:
            seconds[tree].append([t / k for t, k in zip(totals[tree], counts)])
    return seconds


def main() -> int:
    rounds = int(sys.argv[2]) if len(sys.argv) == 3 else 10
    if len(sys.argv) not in (2, 3) or rounds < 2:
        print("usage: python3 tools/paired_passes.py PARENT_CHECKOUT [ROUNDS >= 2]",
              file=sys.stderr)
        return 2
    srcs = {"parent": os.path.join(os.path.abspath(sys.argv[1]), "src"),
            "change": os.path.join(ROOT, "src")}
    trees = {tree: load(src) for tree, src in srcs.items()}
    gc.freeze()
    differing = check_answers(trees)
    for line in differing:
        print(f"answers differ: {line}", file=sys.stderr)
    if differing:
        return 1
    report("import liealg.cli", import_seconds(srcs, rounds), 0, 1e3, "ms")
    for name in sorted(workloads.WORKLOADS):
        with tempfile.TemporaryDirectory(prefix="liealg-paired-") as work:
            requests = workloads.build(name, 7, work)
            seconds = alternate(trees, rounds, lambda modules: [
                timed(run.run_pass, ready(modules, requests), requests)])
            report(f"{name} pass", seconds, 0, 1, "s")
    with tempfile.TemporaryDirectory(prefix="liealg-paired-") as work:
        path = os.path.join(work, "input.json")
        for name, alg, metric in cases():
            inputs.write_json(path, inputs.algebra_document(alg, metric))
            columns = ["analyze", "forms", "self-dual"] + ["derivations"] * (name in DERIVED)
            with contextlib.redirect_stdout(io.StringIO()):
                seconds = solver_rows(trees, rounds, path, name in DERIVED)
            for column, solver in enumerate(columns):
                report(f"{name} {solver}", seconds, column, 1e3, "ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
