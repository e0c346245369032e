"""Seeded input generation for the liealg benchmark.

Algebras are plain data here: a dimension and a bracket table mapping
(i, j), i < j, to {k: coefficient}.  Nothing in this module imports
liealg, so the files the program reads are produced independently of
the code under test.  Files are written in the ``liealg-v1`` layout
(canonical rational strings, brackets sorted by (i, j), terms by k).

Basis changes are P = L U with L unit lower and U unit upper
triangular and off-diagonal entries in {-1, 0, 1}, so det P = 1 and
P^-1 is integral: rotated tables and metrics P^T B P stay integral.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Algebra:
    """A structure-constant table; ``table[(i, j)] = {k: c}`` for i < j."""
    dim: int
    table: dict
    grading: tuple | None = None
    labels: tuple | None = None

    def bracket_basis(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}


def hat(x: int) -> int:
    """Balanced mod-3 reduction onto {-1, 0, 1}."""
    return (x + 1) % 3 - 1


def family(n: int, reduce=hat) -> Algebra:
    """Member on T_0..T_n: [T_i, T_j] = reduce(i - j) T_{i+j} for i + j <= n.

    ``reduce=hat`` gives the paper's family; the identity gives the
    truncated Witt algebra.
    """
    table = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1 - i):
            if reduce(i - j):
                table[(i, j)] = {i + j: reduce(i - j)}
    return Algebra(n + 1, table, grading=tuple(range(n + 1)),
                   labels=tuple(f"T{i}" for i in range(n + 1)))


def canonical_metric(n: int, b: int = 1) -> list:
    """(T_i, T_j) = [i + j = n] + b [i = j = 0]."""
    grid = [[1 if i + j == n else 0 for j in range(n + 1)] for i in range(n + 1)]
    grid[0][0] += b
    return grid


def heisenberg() -> Algebra:
    """h3: [x0, x1] = x2."""
    return Algebra(3, {(0, 1): {2: 1}})


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    table = dict(a.table)
    for (i, j), terms in b.table.items():
        table[(a.dim + i, a.dim + j)] = {a.dim + k: c for k, c in terms.items()}
    return Algebra(a.dim + b.dim, table)


def block_sum(g1: list, g2: list) -> list:
    n1, n2 = len(g1), len(g2)
    grid = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        grid[i][:n1] = list(g1[i])
    for i in range(n2):
        grid[n1 + i][n1:] = list(g2[i])
    return grid


def matmul(a: list, b: list) -> list:
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a: list) -> list:
    return [list(r) for r in zip(*a)]


def unimodular(rng: random.Random, d: int) -> list:
    """P = L U with unit triangular factors, off-diagonal entries in {-1, 0, 1}."""
    lower = [[1 if i == j else (rng.choice((-1, 0, 1)) if i > j else 0)
              for j in range(d)] for i in range(d)]
    upper = [[1 if i == j else (rng.choice((-1, 0, 1)) if i < j else 0)
              for j in range(d)] for i in range(d)]
    return matmul(lower, upper)


def inverse(a: list) -> list | None:
    """Exact inverse by Gauss-Jordan over Q, or None if a is singular."""
    d = len(a)
    rows = [[Fraction(x) for x in a[i]] + [Fraction(int(i == j)) for j in range(d)]
            for i in range(d)]
    for c in range(d):
        p = next((r for r in range(c, d) if rows[r][c] != 0), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        inv = rows[c][c]
        rows[c] = [x / inv for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[d:] for row in rows]


def rotate(alg: Algebra, p: list) -> Algebra:
    """The same algebra in the basis given by the columns of P.

    [e'_a, e'_b] = sum_{i<j} (P_ia P_jb - P_ja P_ib) [e_i, e_j], written
    back in the new basis through P^-1.  Grading and labels are dropped:
    they do not survive a basis change.
    """
    d = alg.dim
    q = inverse(p)
    table = {}
    for a in range(d):
        for b in range(a + 1, d):
            v = [0] * d
            for (i, j), terms in alg.table.items():
                w = p[i][a] * p[j][b] - p[j][a] * p[i][b]
                if w:
                    for k, c in terms.items():
                        v[k] += w * c
            coords = {c: sum(q[c][k] * v[k] for k in range(d)) for c in range(d)}
            terms = {c: x for c, x in coords.items() if x != 0}
            if terms:
                table[(a, b)] = terms
    return Algebra(d, table)


def congruent(grid: list, p: list) -> list:
    """P^T G P."""
    return matmul(matmul(transpose(p), grid), p)


def hyperbolic(k: int) -> list:
    """The split form [[0, I], [I, 0]] on a space of dimension 2k."""
    return [[1 if abs(i - j) == k else 0 for j in range(2 * k)] for i in range(2 * k)]


def skew_line_action(rng: random.Random, k: int) -> list:
    """An invertible rho on the hyperbolic 2k-space with rho^T w + w rho = 0.

    rho = [[A, B], [C, -A^T]] with B and C skew.  Invertibility makes the
    double extension's center one-dimensional, hence the output
    indecomposable: this is the known answer the benchmark checks.
    """
    while True:
        a = [[rng.choice((-1, 0, 1)) for _ in range(k)] for _ in range(k)]
        b = [[0] * k for _ in range(k)]
        c = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                b[i][j] = rng.choice((-1, 0, 1))
                b[j][i] = -b[i][j]
                c[i][j] = rng.choice((-1, 0, 1))
                c[j][i] = -c[i][j]
        rho = [a[i] + b[i] for i in range(k)] + \
              [c[i] + [-a[j][i] for j in range(k)] for i in range(k)]
        if inverse(rho) is not None:
            return rho


def scalar(x) -> str:
    return str(Fraction(x))


def algebra_document(alg: Algebra, metric: list | None = None) -> dict:
    doc = {"format": "liealg-v1", "field": "Q", "dim": alg.dim}
    if alg.labels is not None:
        doc["labels"] = list(alg.labels)
    doc["brackets"] = [
        {"i": i, "j": j,
         "terms": [{"k": k, "c": scalar(c)} for k, c in sorted(terms.items())]}
        for (i, j), terms in sorted(alg.table.items())]
    if alg.grading is not None:
        doc["grading"] = list(alg.grading)
    if metric is not None:
        doc["metric"] = [[scalar(x) for x in row] for row in metric]
    return doc


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
