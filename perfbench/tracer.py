"""Layer spans and counters for liealg, recorded from outside the package.

``Tracer.install`` wraps the package's layer entry points.  A
module-level function is replaced in every ``liealg`` module that bound
it at import time (``core``, ``family``, ``selfdual`` and ``cli`` import
``nullspace``, ``det`` and others by name), and methods are wrapped on
their class.  ``Tracer.remove`` restores every original object.

Each call becomes a span ``(name, parent, request, start, end, info)``
kept in memory; ``info`` holds counters taken from the arguments
(matrix shape and nonzeros, file bytes, subsets visited).  Statistics
are derived from the span list afterwards: ``s`` is inclusive time
(outermost span of a name only, so recursion is not counted twice),
``self_s`` is time not covered by child spans.

``profile_fields`` runs a callable under cProfile and groups self time
by source file to measure the scalar layer (``fractions.py`` plus
``liealg/fields.py``), which is too fine-grained to wrap call by call.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
from time import perf_counter

# (module, attribute or Class.method, span name)
TARGETS = (
    ("liealg.linalg", "nullspace", "linalg.nullspace"),
    ("liealg.linalg", "det", "linalg.det"),
    ("liealg.linalg", "solve", "linalg.solve"),
    ("liealg.linalg", "rref", "linalg.rref"),
    ("liealg.linalg", "Subspace.__init__", "linalg.Subspace"),
    ("liealg.linalg", "Subspace.reduce", "linalg.Subspace"),
    ("liealg.linalg", "Subspace.intersect", "linalg.Subspace"),
    ("liealg.core", "LieAlgebra.check_jacobi", "core.check_jacobi"),
    ("liealg.core", "LieAlgebra.derived_series", "core.derived_series"),
    ("liealg.core", "LieAlgebra.lower_central_series", "core.lower_central_series"),
    ("liealg.core", "LieAlgebra.center", "core.center"),
    ("liealg.core", "LieAlgebra.killing_form", "core.killing_form"),
    ("liealg.core", "LieAlgebra.quotient", "core.quotient"),
    ("liealg.core", "LieAlgebra.is_ideal", "core.is_ideal"),
    ("liealg.core", "BilinearForm.invariance_witness", "core.invariance_witness"),
    ("liealg.family", "truncated_algebra", "family.truncated_algebra"),
    ("liealg.family", "enumerate_coordinate_ideals", "family.enumerate_coordinate_ideals"),
    ("liealg.family", "classify_ideals", "family.classify_ideals"),
    ("liealg.selfdual", "invariant_form_space", "selfdual.invariant_form_space"),
    ("liealg.selfdual", "nondegenerate_invariant_metric",
     "selfdual.nondegenerate_invariant_metric"),
    ("liealg.selfdual", "is_self_dual", "selfdual.is_self_dual"),
    ("liealg.selfdual", "decomposability_check", "selfdual.decomposability_check"),
    ("liealg.selfdual", "deeper_verdict", "selfdual.deeper_verdict"),
    ("liealg.selfdual", "double_extend", "selfdual.double_extend"),
    ("liealg.selfdual", "wigner_contract", "selfdual.wigner_contract"),
    ("liealg.io", "load_algebra", "io.load_algebra"),
    ("liealg.io", "save_algebra", "io.save_algebra"),
    ("liealg.cli", "main", "cli.main"),
    ("liealg.cli", "_cmd_analyze", "cli.analyze"),
    ("liealg.cli", "_cmd_classify", "cli.classify"),
    ("liealg.cli", "_cmd_check", "cli.check"),
    ("liealg.cli", "_cmd_ideals", "cli.ideals"),
    ("liealg.cli", "_cmd_dext", "cli.dext"),
    ("liealg.cli", "_cmd_wigner", "cli.wigner"),
)

CLI_HANDLERS = ("cli.analyze", "cli.classify", "cli.check", "cli.ideals",
                "cli.dext", "cli.wigner")


def _matrix_shape(args, kwargs):
    m = args[0]
    return (m.nrows, m.ncols, sum(1 for row in m.rows for x in row if x))


def _form_unknowns(args, kwargs):
    d = args[0].dim
    return d * (d + 1) // 2


def _subsets(args, kwargs):
    return 1 << args[0].dim


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


# counters taken before the call, or after it for files the call writes
BEFORE = {
    "linalg.nullspace": _matrix_shape,
    "selfdual.invariant_form_space": _form_unknowns,
    "family.enumerate_coordinate_ideals": _subsets,
    "io.load_algebra": _file_bytes,
}
AFTER = {"io.save_algebra": _file_bytes}


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = before(args, kwargs) if before else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if after:
                    info = after(args, kwargs)
                spans[sid] = (name, parent, self.request, start, end, info)
        return traced

    def install(self):
        package = [m for k, m in sys.modules.items()
                   if (k == "liealg" or k.startswith("liealg.")) and m is not None]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def remove(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def _has_ancestor(spans, sid, name) -> bool:
    parent = spans[sid][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def span_stats(spans) -> dict:
    """Per span name: calls, inclusive s, self_s, and the summed counters."""
    child = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict = {}
    for sid, (name, parent, _, start, end, info) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += end - start - child[sid]
        if not _has_ancestor(spans, sid, name):
            st["s"] += end - start
    return stats


def layer_metrics(spans, untraced_batch_s: float, traced_batch_s: float,
                  fields: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    stats = span_stats(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict = {}

    def put(name, stat, unit):
        out[f"{name}.{stat}"] = (stats.get(name, empty)[stat], unit)

    for name in ("linalg.nullspace", "linalg.Subspace", "selfdual.invariant_form_space"):
        put(name, "calls", "count")
        put(name, "s", "s")
        put(name, "self_s", "s")
    cells = nonzeros = equations = 0
    for sid, (name, _, _, _, _, info) in enumerate(spans):
        if name == "linalg.nullspace":
            cells += info[0] * info[1]
            nonzeros += info[2]
            if _has_ancestor(spans, sid, "selfdual.invariant_form_space"):
                equations += info[0]
    out["linalg.nullspace.cells"] = (cells, "count")
    out["linalg.nullspace.density"] = (nonzeros / cells if cells else 0.0, "ratio")
    for name in ("linalg.det", "linalg.solve", "linalg.rref"):
        put(name, "calls", "count")
        put(name, "s", "s")
    put("selfdual.nondegenerate_invariant_metric", "s", "s")
    verdicts = stats.get("selfdual.is_self_dual", empty)["calls"]
    dets = sum(1 for sid, span in enumerate(spans) if span[0] == "linalg.det"
               and _has_ancestor(spans, sid, "selfdual.is_self_dual"))
    out["selfdual.dets_per_verdict"] = (dets / verdicts if verdicts else 0.0, "ratio")
    out["selfdual.invariant_form_space.equations"] = (equations, "count")
    out["selfdual.invariant_form_space.unknowns"] = (
        sum(s[5] for s in spans if s[0] == "selfdual.invariant_form_space"), "count")
    put("selfdual.is_self_dual", "calls", "count")
    put("selfdual.is_self_dual", "s", "s")
    put("selfdual.is_self_dual", "self_s", "s")
    for name in ("decomposability_check", "deeper_verdict", "double_extend",
                 "wigner_contract"):
        put(f"selfdual.{name}", "s", "s")
    for name in ("check_jacobi", "invariance_witness", "derived_series",
                 "lower_central_series", "center", "killing_form", "quotient"):
        put(f"core.{name}", "s", "s")
    put("core.is_ideal", "calls", "count")
    put("core.is_ideal", "s", "s")
    put("family.enumerate_coordinate_ideals", "calls", "count")
    put("family.enumerate_coordinate_ideals", "s", "s")
    out["family.enumerate_coordinate_ideals.subsets"] = (
        sum(s[5] for s in spans if s[0] == "family.enumerate_coordinate_ideals"), "count")
    put("family.classify_ideals", "s", "s")
    put("family.truncated_algebra", "s", "s")
    for name in ("io.load_algebra", "io.save_algebra"):
        put(name, "calls", "count")
        put(name, "s", "s")
        out[f"{name}.bytes"] = (sum(s[5] for s in spans if s[0] == name), "B")
    for name in CLI_HANDLERS:
        put(name, "s", "s")
    out["fields.self_s"] = (fields["self_s"], "s")
    out["fields.self_share"] = (fields["self_share"], "ratio")
    out["fields.fraction_ops"] = (fields["fraction_ops"], "count")
    put("cli.main", "self_s", "s")
    out["trace.overhead_share"] = (
        (traced_batch_s - untraced_batch_s) / untraced_batch_s, "ratio")
    return out


def top_level_s(spans) -> float:
    """Time of the direct children of cli.main plus cli.main's self time."""
    stats = span_stats(spans)
    return (sum(stats[h]["s"] for h in CLI_HANDLERS if h in stats)
            + stats.get("cli.main", {"self_s": 0.0})["self_s"])


def _is_fields_file(filename: str) -> bool:
    return (os.path.basename(filename) == "fractions.py"
            or filename.replace(os.sep, "/").endswith("liealg/fields.py"))


def profile_fields(run):
    """Run ``run()`` under cProfile; return (its result, scalar-layer figures).

    self_s is the self time of functions defined in fractions.py and
    liealg/fields.py, self_share its share of all profiled self time, and
    fraction_ops the number of calls into fractions.py, which depends only
    on the work done and so repeats exactly.
    """
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = run()
    finally:
        prof.disable()
    total = self_s = 0.0
    ops = 0
    for (filename, _, _), (_, ncalls, tottime, _, _) in pstats.Stats(prof).stats.items():
        total += tottime
        if _is_fields_file(filename):
            self_s += tottime
            if os.path.basename(filename) == "fractions.py":
                ops += ncalls
    return result, {"self_s": self_s, "self_share": self_s / total if total else 0.0,
                    "fraction_ops": ops}
