"""Random tables: the closure solve of invariant forms against the assembled reference.

Small random integer tables, most of which fail Jacobi and so keep the
whole basis as generating set, and tables that satisfy it (direct sums
of small Lie algebras, scaled and in a seeded unimodular basis), over Q
and F_2, F_3, F_5.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liealg.core import LieAlgebra, direct_sum  # noqa: E402
from liealg.family import truncated_algebra  # noqa: E402
from liealg.fields import PrimeField, QQ  # noqa: E402
from liealg.hats import IDENTITY_HAT  # noqa: E402
from liealg.linalg import Matrix, nullspace  # noqa: E402

from test_form_closure import _same_forms, _scaled  # noqa: E402
from test_sparse_oracle import _rotated  # noqa: E402

_SETTINGS = dict(max_examples=150, deadline=None, database=None, derandomize=True)
_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))


@st.composite
def _raw_tables(draw):
    """Small random tables; most fail Jacobi and keep the full basis."""
    field = draw(st.sampled_from(_FIELDS))
    d = draw(st.integers(0, 5))
    if field == QQ:
        scalar = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    else:
        scalar = st.integers(0, field.characteristic - 1)
    width = draw(st.integers(1, max(d, 1)))
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            terms = draw(st.dictionaries(st.integers(0, d - 1), scalar, max_size=width))
            if terms:
                brackets[(i, j)] = terms
    return LieAlgebra(field, d, brackets)


_PARTS = ("h3", "abelian", "A3", "A4", "A5", "A6", "W4")


def _part(name, field):
    if name == "h3":
        return LieAlgebra(field, 3, {(0, 1): [(2, 1)]})
    if name == "abelian":
        return LieAlgebra(field, 1, {})
    if name == "W4":
        return truncated_algebra(4, hat=IDENTITY_HAT, field=field)
    return truncated_algebra(int(name[1:]), field=field)


@st.composite
def _lie_tables(draw):
    """Tables that satisfy Jacobi: direct sums of small Lie algebras,
    scaled and in a seeded unimodular basis."""
    field = draw(st.sampled_from(_FIELDS))
    parts = draw(st.lists(st.sampled_from(_PARTS), min_size=1, max_size=3))
    alg = _part(parts[0], field)
    for name in parts[1:]:
        alg = direct_sum(alg, _part(name, field))
    if alg.dim > 8:
        alg = _part(parts[0], field)
    if draw(st.booleans()):
        alg = _rotated(alg, draw(st.integers(0, 2 ** 16)))
    c = draw(st.integers(1, 6)) if field.characteristic else \
        Fraction(draw(st.integers(-6, 6).filter(bool)), draw(st.integers(1, 5)))
    if not field.characteristic or c % field.characteristic:
        alg = _scaled(alg, c)
    return alg


@settings(**_SETTINGS)
@given(_raw_tables())
def test_random_tables(alg):
    _same_forms(alg)


@settings(**_SETTINGS)
@given(_lie_tables())
def test_random_lie_algebras(alg):
    assert alg.check_jacobi() is None
    _same_forms(alg)


def _invariant_bilinear_forms(alg):
    """Every bilinear form on which each ad_x is skew, symmetric or not:
    the kernel of c_ki^l B_lj + c_kj^l B_il = 0 over the d^2 entries
    B_ij (entry i d + j)."""
    d, zero = alg.dim, alg.field.zero
    rows = []
    for k in range(d):
        ad = [[alg.structure_constant(k, i, l) for l in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(d):
                row = [zero] * (d * d)
                for l in range(d):
                    row[l * d + j] += ad[i][l]
                    row[i * d + l] += ad[j][l]
                rows.append(row)
    return nullspace(Matrix(alg.field, rows)).basis


@settings(**_SETTINGS)
@given(st.one_of(_raw_tables(), _lie_tables()).filter(lambda alg: alg.dim))
def test_invariant_forms_are_symmetric_on_brackets(alg):
    """B(u, z) = B(z, u) for u in [L, L] and every ad-skew B, in every
    characteristic F_2 included, with or without Jacobi.  So a form
    that is symmetric on the module generators, which span L modulo
    [L, L], is symmetric, and ``invariant_form_space`` asks no
    symmetry equation of its words."""
    d = alg.dim
    for b in _invariant_bilinear_forms(alg):
        for i in range(d):
            for j in range(i + 1, d):
                u = [alg.structure_constant(i, j, l) for l in range(d)]
                for z in range(d):
                    assert (sum((x * b[l * d + z] for l, x in enumerate(u)), alg.field.zero)
                            == sum((x * b[z * d + l] for l, x in enumerate(u)), alg.field.zero))
