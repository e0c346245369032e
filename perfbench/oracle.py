"""Independent exact re-verification with sympy.

Nothing here calls liealg: files are parsed from JSON, and every
property is recomputed with sympy's ``DomainMatrix`` over QQ from the
structure constants alone.  The benchmark imports this module only
after its timed passes, so sympy's import and the checks stay outside
every measured interval and outside the peak-memory reading.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from inputs import Algebra


def q(x) -> object:
    x = Fraction(x)
    return QQ(x.numerator, x.denominator)


def dm(rows, ncols: int | None = None) -> DomainMatrix:
    rows = [[q(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else (ncols or 0)
    return DomainMatrix(rows, (len(rows), ncols), QQ)


def fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def fractions(m: DomainMatrix) -> list:
    return [[fraction(x) for x in r] for r in m.to_list()]


def apply(a: DomainMatrix, v) -> list:
    """a v for a vector v, as Fractions."""
    return [r[0] for r in fractions(a * dm([[x] for x in v]))]


def read_file(path: str) -> tuple[Algebra, list | None]:
    """Parse a liealg-v1 file into (Algebra, metric grid of Fractions or None)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    table = {}
    for rec in doc["brackets"]:
        terms = {t["k"]: Fraction(t["c"]) for t in rec["terms"]}
        table[(rec["i"], rec["j"])] = {k: c for k, c in terms.items() if c}
    grading = tuple(doc["grading"]) if "grading" in doc else None
    alg = Algebra(doc["dim"], {k: v for k, v in table.items() if v}, grading)
    metric = None
    if "metric" in doc:
        metric = [[Fraction(x) for x in row] for row in doc["metric"]]
    return alg, metric


class Facts:
    """Structure of one algebra, recomputed from its table with sympy."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        d = alg.dim
        self.ad = []
        for i in range(d):
            cols = [alg.bracket_basis(i, l) for l in range(d)]
            self.ad.append(dm([[cols[l].get(k, 0) for l in range(d)]
                               for k in range(d)], d))

    @cached_property
    def summary(self) -> dict:
        """What ``analyze`` reports that a basis change must preserve."""
        return {"derived_dims": self.derived_dims(),
                "lower_central_dims": self.lower_central_dims(),
                "center_dim": self.center_dim(), "killing": self.killing()}

    def ad_of(self, v) -> DomainMatrix:
        d = self.alg.dim
        acc = DomainMatrix.zeros((d, d), QQ)
        for x, a in zip(v, self.ad):
            if x:
                acc = acc + a * q(x)
        return acc

    def bracket(self, u, v) -> list:
        """[u, v] from the structure constants, as Fractions."""
        out = [Fraction(0)] * self.alg.dim
        for (i, j), terms in self.alg.table.items():
            w = u[i] * v[j] - u[j] * v[i]
            if w:
                for k, c in terms.items():
                    out[k] += w * c
        return out

    def span(self, vectors) -> list:
        """Basis rows (RREF) of the span."""
        vectors = [v for v in vectors if any(v)]
        if not vectors:
            return []
        reduced, pivots = dm(vectors).rref()
        return fractions(reduced)[:len(pivots)]

    def derived_dims(self) -> list[int]:
        d = self.alg.dim
        cur = [[int(i == j) for j in range(d)] for i in range(d)]
        dims = [d]
        while True:
            nxt = self.span([self.bracket(u, v) for u in cur for v in cur])
            if len(nxt) == len(cur):
                return dims
            dims.append(len(nxt))
            cur = nxt

    def lower_central_dims(self) -> list[int]:
        d = self.alg.dim
        full = [[int(i == j) for j in range(d)] for i in range(d)]
        cur, dims = full, [d]
        while True:
            nxt = self.span([self.bracket(e, v) for e in full for v in cur])
            if len(nxt) == len(cur):
                return dims
            dims.append(len(nxt))
            cur = nxt

    def center_dim(self) -> int:
        d = self.alg.dim
        if d == 0:
            return 0
        stacked = DomainMatrix.vstack(*self.ad) if d > 1 else self.ad[0]
        return d - stacked.rank()

    def killing(self) -> list:
        """K_ij = trace(ad_i ad_j) = sum_{k,l} c_ik^l c_jl^k."""
        d = self.alg.dim
        ad = [[self.alg.bracket_basis(i, k) for k in range(d)] for i in range(d)]
        return [[sum((c * ad[j][l].get(k, 0) for k in range(d)
                      for l, c in ad[i][k].items()), Fraction(0))
                 for j in range(d)] for i in range(d)]

    def jacobi_holds(self) -> bool:
        d = self.alg.dim
        for i in range(d):
            for j in range(i + 1, d):
                lhs = self.ad[i] * self.ad[j] - self.ad[j] * self.ad[i]
                rhs = self.ad_of([self.alg.bracket_basis(i, j).get(k, 0)
                                  for k in range(d)])
                if not (lhs - rhs).is_zero_matrix:
                    return False
        return True

    def is_metric(self, grid) -> bool:
        """Symmetric, ad-invariant (ad_k^T B + B ad_k = 0) and non-degenerate."""
        b = dm(grid, self.alg.dim)
        if not (b - b.transpose()).is_zero_matrix:
            return False
        if any(not (a.transpose() * b + b * a).is_zero_matrix for a in self.ad):
            return False
        return b.det() != 0

    def is_ideal(self, rows) -> bool:
        base = len(self.span(rows))
        images = [apply(a, v) for a in self.ad for v in rows]
        return len(self.span(list(rows) + images)) == base

    def is_orthogonal_split(self, grid, comp, rest) -> bool:
        """comp + rest is an orthogonal sum of ideals, metric non-degenerate on each."""
        d = self.alg.dim
        if not comp or not rest or len(comp) + len(rest) != d:
            return False
        if len(self.span(list(comp) + list(rest))) != d:
            return False
        b = dm(grid, d)
        u, w = dm(comp), dm(rest)
        if not (u * b * w.transpose()).is_zero_matrix:
            return False
        if (u * b * u.transpose()).det() == 0:
            return False
        return self.is_ideal(comp) and self.is_ideal(rest)

    def coordinate_ideals(self) -> list[list[int]]:
        """Coordinate subsets closed under bracketing with every basis vector."""
        d = self.alg.dim
        reach = [0] * d
        for j in range(d):
            for i in range(d):
                for k in self.alg.bracket_basis(i, j):
                    reach[j] |= 1 << k
        found = [c for c in range(1 << d)
                 if all(reach[j] & ~c == 0 for j in range(d) if c >> j & 1)]
        subsets = [[j for j in range(d) if c >> j & 1] for c in found]
        return sorted(subsets, key=lambda s: (len(s), s))


def congruent(grid, p) -> list:
    """P^T G P, exactly."""
    g, pm = dm(grid), dm(p)
    return fractions(pm.transpose() * g * pm)
