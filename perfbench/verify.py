"""Known answers and exact re-verification of every response.

``check(request, response)`` returns an ``Outcome``.  Verdicts are
compared with what is known independently of the program:

- a family member has an invariant metric iff 3 | n, and a file that
  carries a metric is self-dual; h3 and the truncated Witt algebra W10
  are not (a metric algebra has dim Z(g) = codim [g, g]: 1 != 2 for h3,
  0 != 1 for W10).  An ``unknown`` is undecided, not failed;
- a basis change keeps the series and center dimensions, and the
  Killing matrix becomes P^T K P exactly;
- family members are indecomposable; A3 + A3 splits in every basis;
- a double extension of a hyperbolic space by an invertible line action
  has a one-dimensional center, so it is indecomposable.

Every returned metric, split and output file is re-checked exactly with
sympy (``oracle.py``).  Nothing here calls liealg.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import inputs as gen
import oracle


@dataclass(frozen=True)
class Outcome:
    ok: bool
    problem: str = ""
    known: bool = False  # the failure is the request's documented known defect


def _grid(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


_facts: dict = {}


def facts(alg: gen.Algebra) -> oracle.Facts:
    """Facts per input algebra object (one request list shares its inputs)."""
    if id(alg) not in _facts:
        _facts[id(alg)] = (alg, oracle.Facts(alg))
    return _facts[id(alg)][1]


def _analyze(exp: dict, env: dict) -> Outcome:
    alg, base, p = exp["alg"], exp["base"], exp["p"]
    truth = facts(base).summary
    for key in ("derived_dims", "lower_central_dims", "center_dim"):
        if env.get(key) != truth[key]:
            return Outcome(False, f"{key} {env.get(key)} != {truth[key]}")
    killing = truth["killing"] if p is None else oracle.congruent(truth["killing"], p)
    if _grid(env["killing"]) != killing:
        return Outcome(False, "Killing matrix differs from P^T K P")
    if env["abelian"] != (not alg.table):
        return Outcome(False, "abelian flag is wrong")
    if exp["metric"] is not None:
        if not (env.get("file_metric_invariant") and env.get("file_metric_nondegenerate")):
            return Outcome(False, "file metric reported as not a metric")
    verdict = env["self_dual"]
    if verdict == "unknown":
        return Outcome(True)
    if verdict != exp["self_dual"]:
        return Outcome(False, f"self_dual {verdict}, known answer {exp['self_dual']}")
    if verdict == "yes" and not facts(alg).is_metric(_grid(env["invariant_metric"])):
        return Outcome(False, "returned invariant metric fails re-verification")
    return Outcome(True)


def _classify(exp: dict, env: dict, known: str | None) -> Outcome:
    if "n" in exp:
        n = exp["n"]
        candidates = [m for m in (1, 2) if 2 * m <= n + 1 and n <= 3 * m]
        if env["candidates"] != candidates:
            return Outcome(False, f"candidates {env['candidates']} != {candidates}")
        if not candidates and env["verdict"] != "deeper":
            return Outcome(False, f"verdict {env['verdict']}, known answer deeper")
        if env["decomposable"]:
            return Outcome(False, "family member reported decomposable")
        return Outcome(True)
    if env["decomposable"] != exp["splits"]:
        return Outcome(False, f"decomposable {env['decomposable']}, "
                       f"known answer {exp['splits']}", known=known is not None)
    if env["decomposable"]:
        split = env["split"]
        if not facts(exp["alg"]).is_orthogonal_split(
                exp["metric"], _grid(split["component"]), _grid(split["complement"])):
            return Outcome(False, "returned split fails re-verification")
    return Outcome(True)


def _ideals(exp: dict, env: dict) -> Outcome:
    alg = exp["alg"]
    if "n" in exp:
        n = exp["n"]
        suffix = [list(range(m, n + 1)) for m in range(n + 2)]
        skip = [[m - 2] + list(range(m, n + 1)) for m in range(2, n + 2) if gen.hat(m) == 0]
        truth = sorted(suffix + skip, key=lambda s: (len(s), s))
        if not env["closed_form"]["match"]:
            return Outcome(False, "closed form reported as not matching")
    else:
        truth = facts(alg).coordinate_ideals()
    if env["ideals"] != truth or env["count"] != len(truth):
        return Outcome(False, f"{env['count']} ideals listed, {len(truth)} exist")
    return Outcome(True)


def _read_output(path: str) -> tuple[gen.Algebra, list]:
    alg, metric = oracle.read_file(path)
    if metric is None:
        raise ValueError("output file carries no metric")
    return alg, metric


def _dext(exp: dict, env: dict) -> Outcome:
    omega, rho = exp["omega"], exp["rho"]
    a = len(omega)
    alg, metric = _read_output(exp["output"])
    # acting line b0, Abelian block a_x, dual line b0*
    table = {}
    for x in range(a):
        terms = {1 + y: Fraction(rho[y][x]) for y in range(a) if rho[y][x]}
        if terms:
            table[(0, 1 + x)] = terms
        for y in range(x + 1, a):
            c = sum(Fraction(rho[z][x]) * omega[z][y] for z in range(a))
            if c:
                table[(1 + x, 1 + y)] = {a + 1: c}
    if alg.dim != a + 2 or alg.table != table:
        return Outcome(False, "output brackets differ from the double extension")
    f = facts(alg)
    if not (f.jacobi_holds() and f.is_metric(metric)):
        return Outcome(False, "output fails Jacobi or metric re-verification")
    if f.center_dim() != 1:
        return Outcome(False, "center of the extension is not a line")
    if env["decomposable"] not in ("no", "unknown"):
        return Outcome(False, f"decomposable {env['decomposable']}, known answer no")
    return Outcome(True)


def _wigner(exp: dict, env: dict) -> Outcome:
    alg, metric = _read_output(exp["output"])
    f = facts(alg)
    if alg.dim != exp["dim"] or env["dim"] != exp["dim"]:
        return Outcome(False, f"output dim {alg.dim}, expected {exp['dim']}")
    if not (f.jacobi_holds() and f.is_metric(metric)):
        return Outcome(False, "output fails Jacobi or metric re-verification")
    return Outcome(True)


def decided(req, code, stdout: str) -> bool:
    """A verdict-bearing response that answers yes or no (not unknown or capped)."""
    if code != 0:
        return False
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if req.argv[0] == "analyze":
        return env.get("self_dual") in ("yes", "no")
    if req.argv[0] == "classify":
        return isinstance(env.get("decomposable"), bool)
    return env.get("decomposable") in ("yes", "no")


def check(req, code, stdout: str) -> Outcome:
    """Judge one response of ``req`` (exit code and porcelain stdout)."""
    if code != 0:
        return Outcome(False, f"exit code {code}")
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome(False, "stdout is not one JSON report")
    exp = req.expect
    cmd = req.argv[0]
    try:
        if cmd == "analyze":
            return _analyze(exp, env)
        if cmd == "classify":
            return _classify(exp, env, req.known_defect)
        if cmd == "ideals":
            return _ideals(exp, env)
        if cmd == "check":
            if env.get("holds") is not True:
                return Outcome(False, f"{exp['property']} reported as failing")
            return Outcome(True)
        if cmd == "dext":
            return _dext(exp, env)
        if cmd == "wigner":
            return _wigner(exp, env)
    except (KeyError, TypeError, ValueError) as exc:
        return Outcome(False, f"report or output malformed: {exc!r}")
    raise ValueError(f"no verifier for {cmd}")
