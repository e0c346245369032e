"""The coordinate-ideal walk against a scan of every coordinate subset.

``enumerate_coordinate_ideals`` walks the closed sets of the relation
j -> need[j] (the bracket supports that touch j).  The reference below
tests each of the 2^d bitmasks instead, and the two must return the
same list, order included.
"""

import random

import pytest

from liealg.core import BilinearForm, LieAlgebra, direct_sum
from liealg.family import (ClassificationMismatchError, classify_ideals,
                           enumerate_coordinate_ideals, truncated_algebra)
from liealg.fields import PrimeField, QQ
from liealg.hats import IDENTITY_HAT, ZModHat
from liealg.linalg import Matrix, Subspace, det
from liealg.selfdual import DoubleExtensionInput, double_extend
from test_hatfamily import _random_table
from test_sparse_oracle import _rotated


def _scan_ideals(alg):
    """Every bitmask C with need[j] & ~C = 0 for each j in C."""
    d = alg.dim
    need = [0] * d
    for (i, j), terms in alg.sc.items():
        for k, _ in terms:
            need[i] |= 1 << k
            need[j] |= 1 << k
    found = []
    for c in range(1 << d):
        rest = c
        while rest:
            low = rest & -rest
            if need[low.bit_length() - 1] & ~c:
                break
            rest ^= low
        else:
            found.append(c)
    subsets = [tuple(i for i in range(d) if c >> i & 1) for c in found]
    subsets.sort(key=lambda s: (len(s), s))
    return [Subspace.coordinate(alg.field, d, s) for s in subsets]


def _dext_hyperbolic(k, seed):
    """A line acting on the hyperbolic 2k-space by a seeded invertible
    rho = [[A, B], [C, -A^T]] with B and C skew, double extended."""
    rng = random.Random(seed)
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
        rho = Matrix(QQ, [a[i] + b[i] for i in range(k)]
                     + [c[i] + [-a[j][i] for j in range(k)] for i in range(k)])
        if det(rho) != 0:
            break
    omega = BilinearForm(Matrix(QQ, [[1 if abs(i - j) == k else 0 for j in range(2 * k)]
                                     for i in range(2 * k)]))
    out, _ = double_extend(DoubleExtensionInput(2 * k, omega, LieAlgebra(QQ, 1, {}), (rho,)))
    return out


def _corpus():
    rng = random.Random(1913)
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for d in range(4):
            yield f"empty{d}/{field}", LieAlgebra(field, d, {})
        for t in range(30):
            repeats = t % 2 == 1
            yield (f"random{t}/{field}",
                   _random_table(rng, field, rng.randint(1, 10), repeats))
    for n in range(16):
        yield f"A{n}", truncated_algebra(n)
        yield f"W{n}", truncated_algebra(n, hat=IDENTITY_HAT)
    for d in range(13):
        yield f"abelian{d}", LieAlgebra(QQ, d, {})
    a3 = truncated_algebra(3)
    for seed in range(2):
        yield f"A3+A3 rotated {seed}", _rotated(direct_sum(a3, a3), seed)
        yield f"A6 rotated {seed}", _rotated(truncated_algebra(6), seed)
        yield f"A9 rotated {seed}", _rotated(truncated_algebra(9), seed)
    for k in (3, 6):
        yield f"dext {2 * k}", _dext_hyperbolic(k, 7)


CORPUS = list(_corpus())


@pytest.mark.parametrize("alg", [alg for _, alg in CORPUS],
                         ids=[name for name, _ in CORPUS])
def test_walk_matches_the_subset_scan(alg):
    assert enumerate_coordinate_ideals(alg, 1 << 16) == _scan_ideals(alg)


def test_walk_cost_follows_the_ideals():
    # 2^40 subsets, 54 ideals: the suffix spans and the skip spans
    n = 39
    ideals = enumerate_coordinate_ideals(truncated_algebra(n), max_subsets=1 << 40)
    closed = classify_ideals(n, cross_check=False).subspaces()
    closed.sort(key=lambda s: (s.dim, s.pivot_columns()))
    assert len(ideals) == 54
    assert ideals == closed


def test_cap_bounds_the_subsets_not_the_ideals():
    with pytest.raises(ValueError, match=r"2\^40 subsets exceed the enumeration cap"):
        enumerate_coordinate_ideals(truncated_algebra(39), max_subsets=(1 << 40) - 1)
    assert len(enumerate_coordinate_ideals(LieAlgebra(QQ, 4, {}), max_subsets=16)) == 16


def test_classification_cross_checks_at_every_n():
    for n in range(61):
        classify_ideals(n)  # raises ClassificationMismatchError on a mismatch
    # the check runs past the default cap: a hat with another zero pattern
    # is caught at n = 40
    with pytest.raises(ClassificationMismatchError):
        classify_ideals(40, ZModHat(5))
