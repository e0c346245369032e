"""The benchmark's workloads: seeded input files and fixed request lists.

Each builder writes its inputs into a work directory and returns the
pass's request list.  A request is the argv of one ``liealg`` CLI call
plus what the benchmark knows about its answer; the program sees only
the files and the argv.  The seed fixes the inputs and the order of the
requests in a pass.

Basis changes are P = D P0 D: P0 = L U is drawn once per algebra from a
fixed stream and D is a seeded diagonal of signs.  Fully random P0 per
seed made the cost of one rotated A9 analyze vary by a quarter between
seeds; sign changes keep the coefficient sizes, so seeds differ only in
signs and in the order the program's elimination meets the rows.
D P0 D is again unit-triangular-factored with entries in {-1, 0, 1},
so det P = 1 and the rotated files stay integral.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import inputs as gen

KINDS = ("analyze", "classify", "check", "ideals", "construct")


@dataclass(frozen=True)
class Request:
    """One CLI call and the facts its answer is checked against.

    kind:    the end-to-end bucket it is timed under (``construct`` is
             ``dext`` and ``wigner``).
    expect:  what the verifier needs (input algebras, basis change,
             known verdict); see ``verify.py``.
    outputs: files the call writes, read back after each pass.
    known_defect: set when the program is known to answer this request
             wrongly; the failure is still counted in ``failed``.
    """
    kind: str
    argv: tuple
    label: str
    expect: dict = field(default_factory=dict)
    outputs: tuple = ()
    known_defect: str | None = None

    @property
    def verdict_bearing(self) -> bool:
        return self.argv[0] in ("analyze", "classify", "dext")


def signed_rotation(stream: str, d: int, rng: random.Random) -> list:
    p0 = gen.unimodular(random.Random(stream), d)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    return [[signs[i] * p0[i][j] * signs[j] for j in range(d)] for i in range(d)]


class _Files:
    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def algebra(self, name: str, alg: gen.Algebra, metric=None) -> str:
        path = self.path(name)
        gen.write_json(path, gen.algebra_document(alg, metric))
        return path

    def matrices(self, name: str, mats: list) -> str:
        path = self.path(name)
        gen.write_json(path, [[[gen.scalar(x) for x in row] for row in m]
                              for m in mats])
        return path


def _analyze(path, label, alg, base=None, p=None, metric=None, self_dual="no"):
    return Request("analyze", ("analyze", path), label, {
        "alg": alg, "base": base or alg, "p": p, "metric": metric,
        "self_dual": self_dual})


def family_sparse(workdir: str, rng: random.Random) -> list[Request]:
    """Metric family members: one bracket term each and a grading."""
    files = _Files(workdir)
    reqs = []
    for n in (12, 15, 18):
        alg, metric = gen.family(n), gen.canonical_metric(n)
        path = files.algebra(f"a{n}.json", alg, metric)
        reqs.append(_analyze(path, f"analyze A{n}", alg, metric=metric,
                             self_dual="yes"))
        reqs.append(Request("classify", ("classify", "--family", "an", "--n", str(n)),
                            f"classify --n {n}", {"n": n}))
        if n in (12, 15):
            reqs.append(Request("ideals", ("ideals", "--classify-an", path),
                                f"ideals A{n}", {"alg": alg, "n": n}))
    path = files.algebra("a60.json", gen.family(60), gen.canonical_metric(60))
    for prop in ("jacobi", "invariance", "grading"):
        reqs.append(Request("check", ("check", prop, path),
                            f"check {prop} A60", {"property": prop}))
    return reqs


def nonmetric_search(workdir: str, rng: random.Random) -> list[Request]:
    """Algebras with no invariant metric: self-duality must search."""
    files = _Files(workdir)
    reqs = []
    for n in (4, 5, 7):
        alg = gen.family(n)
        reqs.append(_analyze(files.algebra(f"a{n}.json", alg), f"analyze A{n}", alg))
        if n in (4, 5):
            for c in range(3):
                p = signed_rotation(f"nonmetric-search:a{n}#{c}", alg.dim, rng)
                rot = gen.rotate(alg, p)
                path = files.algebra(f"r{n}_{c}.json", rot)
                reqs.append(_analyze(path, f"analyze rotated A{n} #{c}", rot,
                                     base=alg, p=p))
    h3 = gen.heisenberg()
    reqs.append(_analyze(files.algebra("h3.json", h3), "analyze h3", h3))
    # dim 11 with a one-dimensional, degenerate invariant form space: the
    # search fails fast and the grid certificate is out of reach, so the
    # answer is unknown.  Its center (0) differs from the codimension of
    # [g, g] (1), which rules out an invariant metric.
    w10 = gen.family(10, reduce=lambda x: x)
    reqs.append(_analyze(files.algebra("w10.json", w10), "analyze W10", w10))
    return reqs


def rotated_dense(workdir: str, rng: random.Random) -> list[Request]:
    """The family's structure in dense, integral bases, plus constructions."""
    files = _Files(workdir)
    reqs = []
    a3 = gen.family(3)
    sum33 = gen.direct_sum(a3, a3)
    block = gen.block_sum(gen.canonical_metric(3), gen.canonical_metric(3))
    cases = [("a33", sum33, block, True), ("a6", gen.family(6), gen.canonical_metric(6), False),
             ("a9", gen.family(9), gen.canonical_metric(9), False),
             ("a5", gen.family(5), None, False)]
    for name, alg, metric, splits in cases:
        p = signed_rotation(f"rotated-dense:{name}", alg.dim, rng)
        rot = gen.rotate(alg, p)
        rmetric = gen.congruent(metric, p) if metric is not None else None
        path = files.algebra(f"r{name}.json", rot, rmetric)
        reqs.append(Request("check", ("check", "jacobi", path),
                            f"check jacobi rotated {name}", {"property": "jacobi"}))
        if metric is not None:
            reqs.append(Request("check", ("check", "invariance", path),
                                f"check invariance rotated {name}",
                                {"property": "invariance"}))
        # a rotated A9 analyze alone would fill most of a pass and leave a run
        # too few passes to time each request at a fast moment of the host
        if name != "a9":
            reqs.append(_analyze(path, f"analyze rotated {name}", rot, base=alg, p=p,
                                 metric=rmetric,
                                 self_dual="yes" if metric is not None else "no"))
        if metric is not None:
            reqs.append(Request(
                "classify", ("classify", path), f"classify rotated {name}",
                {"alg": rot, "metric": rmetric, "splits": splits},
                known_defect=("the coordinate-ideal scan misses the split once the "
                              "basis mixes the blocks") if splits else None))
        reqs.append(Request("ideals", ("ideals", path), f"ideals rotated {name}",
                            {"alg": rot}))
    path = files.algebra("a33.json", sum33, block)
    reqs.append(Request("classify", ("classify", path), "classify A3+A3",
                        {"alg": sum33, "metric": block, "splits": True}))
    line = files.algebra("line.json", gen.Algebra(1, {}))
    for k in (3, 6):
        omega = gen.hyperbolic(k)
        rho = gen.skew_line_action(rng, k)
        base = files.algebra(f"flat{2 * k}.json", gen.Algebra(2 * k, {}), omega)
        action = files.matrices(f"act{2 * k}.json", [rho])
        out = files.path(f"dext{2 * k}.out.json")
        reqs.append(Request(
            "construct", ("dext", "--base", base, "--by", line, "--action", action,
                          "-o", out),
            f"dext hyperbolic {2 * k}", {"omega": omega, "rho": rho, "output": out},
            outputs=(out,)))
    for n in (9, 12):
        alg, metric = gen.family(n), gen.canonical_metric(n)
        path = files.algebra(f"w{n}.json", alg, metric)
        out = files.path(f"wigner{n}.out.json")
        reqs.append(Request(
            "construct", ("wigner", "--algebra", path, "--subalgebra", "0", "-o", out),
            f"wigner A{n}", {"dim": alg.dim + 1, "output": out}, outputs=(out,)))
    return reqs


WORKLOADS = {
    "family-sparse": family_sparse,
    "nonmetric-search": nonmetric_search,
    "rotated-dense": rotated_dense,
}

#: Typical seconds per pass of the package as it stood when the benchmark
#: was defined (Python 3.11.7 on a shared two-core Xeon virtual machine);
#: they fix how many passes a run of a given length makes.
PASS_SECONDS = {"family-sparse": 5.0, "nonmetric-search": 5.0, "rotated-dense": 2.5}


def build(name: str, seed: int, workdir: str) -> list[Request]:
    """Write the workload's inputs and return its request list, seeded order."""
    rng = random.Random(seed)
    reqs = WORKLOADS[name](workdir, rng)
    rng.shuffle(reqs)
    return [Request(r.kind, r.argv + ("--porcelain",), r.label, r.expect, r.outputs,
                    r.known_defect) for r in reqs]
