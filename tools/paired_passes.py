"""Time benchmark passes of this checkout and another, alternated in one process.

Usage, from the root of a checkout:

    python3 tools/paired_passes.py PARENT_CHECKOUT [ROUNDS] > ratios.txt

The ``liealg`` packages under PARENT_CHECKOUT/src and under this
checkout's ``src/`` are both imported into this process, each with its
own table of ``liealg*`` modules; before each pass the tree's table is
put in ``sys.modules``, so the imports that the CLI makes inside
functions resolve to the same tree.  For each ``perfbench`` workload the
seed-7 inputs are built with ``perfbench/workloads.py`` in a temporary
directory.  One untimed pass per tree checks that every request gives
the same exit code, stdout and output-file bytes in both; otherwise the
script names the requests on stderr and exits 1.  Then ROUNDS (default
10) pairs of passes are timed, the two trees alternating within a pair
and the first of them flipping every round, with the ``load_algebra``
memo cleared before each pass.  ROUNDS is at least 2.

One line per workload gives the median and quartiles of the per-round
ratio (this checkout's seconds / the parent's), the rounds in which
this checkout was faster, and each tree's median pass seconds.  Both
trees share every moment of the host, which separate processes run at
different times do not, so small changes show; this screens a change,
and the perfbench protocol (``perfbench/run.py`` runs of each checkout)
is still the judge.  Standard library only.
"""

import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave both checkouts' trees as they are

import run  # noqa: E402
import workloads  # noqa: E402


def _ours(name: str) -> bool:
    return name == "liealg" or name.startswith("liealg.")


def _install(modules: dict) -> None:
    """Make ``modules`` the only ``liealg*`` entries of ``sys.modules``."""
    for name in [n for n in sys.modules if _ours(n)]:
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
    modules = {n: m for n, m in sys.modules.items() if _ours(n)}
    _install({})
    return modules


def one_pass(modules: dict, requests) -> tuple[float, list]:
    """Seconds and responses of one pass with that tree's modules."""
    _install(modules)
    modules["liealg.io"]._parse.cache_clear()
    gc.collect()
    start = time.perf_counter()
    responses = run.run_pass(modules["liealg.cli"], requests)
    return time.perf_counter() - start, responses


def main() -> int:
    rounds = int(sys.argv[2]) if len(sys.argv) == 3 else 10
    if len(sys.argv) not in (2, 3) or rounds < 2:
        print("usage: python3 tools/paired_passes.py PARENT_CHECKOUT [ROUNDS >= 2]",
              file=sys.stderr)
        return 2
    trees = {"parent": load(os.path.join(os.path.abspath(sys.argv[1]), "src")),
             "change": load(os.path.join(ROOT, "src"))}
    for name in sorted(workloads.WORKLOADS):
        workdir = tempfile.mkdtemp(prefix="liealg-paired-")
        try:
            requests = workloads.build(name, 7, workdir)
            answers = {tree: [(r.code, r.stdout, r.files) for r in one_pass(mods, requests)[1]]
                       for tree, mods in trees.items()}
            differing = [req.label for req, a, b in
                         zip(requests, answers["parent"], answers["change"]) if a != b]
            for label in differing:
                print(f"answers differ: {name} {label}", file=sys.stderr)
            if differing:
                return 1
            seconds = {tree: [] for tree in trees}
            for r in range(rounds):
                order = ("change", "parent") if r % 2 == 0 else ("parent", "change")
                for tree in order:
                    seconds[tree].append(one_pass(trees[tree], requests)[0])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ratios = [c / p for c, p in zip(seconds["change"], seconds["parent"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        wins = sum(x < 1 for x in ratios)
        print(f"{name:<17} change/parent {median:.3f} [{q1:.3f}, {q3:.3f}] "
              f"faster {wins}/{rounds}  parent {statistics.median(seconds['parent']):.3f} s"
              f"  change {statistics.median(seconds['change']):.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
