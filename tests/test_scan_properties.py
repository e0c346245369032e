"""Property tests of the sparse Jacobi and invariance scans.

On random tables of dimension at most 6 and random symmetric forms over
Q (mixed denominators), F_2, F_3 and F_5, ``check_jacobi`` and
``invariance_witness`` return exactly what the dense references in
``test_core`` return: the same first witness and the same defect.  On
the same tables the structure solvers equal the dense full-basis
references of ``test_sparse_oracle``.  On seeded lists of low-rank
symmetric forms the self-duality grid scan, which skips the points with
one nonzero coordinate, stops where the full grid scan does
(``test_metric_search``).
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liealg.core import BilinearForm, LieAlgebra  # noqa: E402
from liealg.fields import QQ, PrimeField  # noqa: E402
from liealg.linalg import Matrix  # noqa: E402
from liealg.selfdual import invariant_form_space  # noqa: E402
from test_core import _dense_check_jacobi, _dense_invariance_witness  # noqa: E402
from test_metric_search import _check_line_scan, _low_rank_sum  # noqa: E402
from test_sparse_oracle import (_dense_center, _dense_derivation_space,  # noqa: E402
                                _dense_invariant_form_space, _dense_series)

_SETTINGS = dict(max_examples=300, deadline=None, database=None, derandomize=True)


def _scalars(field):
    if field == QQ:
        return st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6, 7]))
    return st.integers(0, field.characteristic - 1).map(field)


@st.composite
def _table_and_form(draw):
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    d = draw(st.integers(0, 6))
    scalar = _scalars(field)
    # the widest bracket sets how densely the table is filled
    width = draw(st.integers(1, max(d, 1)))
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            terms = draw(st.dictionaries(st.integers(0, d - 1), scalar, max_size=width))
            if terms:
                brackets[(i, j)] = terms
    zero = draw(st.booleans())  # the zero form is invariant: the scan runs to the end
    upper = {(i, j): field.zero if zero else draw(scalar)
             for i in range(d) for j in range(i, d)}
    grid = [[upper[min(i, j), max(i, j)] for j in range(d)] for i in range(d)]
    return LieAlgebra(field, d, brackets), BilinearForm(Matrix(field, grid))


@settings(**_SETTINGS)
@given(_table_and_form())
def test_scans_equal_the_dense_references(case):
    alg, form = case
    assert alg.check_jacobi() == _dense_check_jacobi(alg)
    assert form.invariance_witness(alg) == _dense_invariance_witness(form, alg)


@settings(**_SETTINGS)
@given(_table_and_form())
def test_structure_solvers_equal_the_dense_references(case):
    # most random tables fail Jacobi and keep the full basis; the rest
    # are solved over a generating set
    alg, _ = case
    assert invariant_form_space(alg) == _dense_invariant_form_space(alg)
    assert alg.center() == _dense_center(alg)
    assert alg.derivation_space() == _dense_derivation_space(alg)
    assert alg.lower_central_series() == _dense_series(alg, lower=True)


@st.composite
def _low_rank_lists(draw):
    """Seeded lists of s <= 4 symmetric forms of rank < d <= 6."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    d, s = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    radical = draw(st.integers(0, 3)) == 3
    return [_low_rank_sum(rng, field, d, draw(st.integers(max(0, d - 3), d - 1)), radical)
            for _ in range(s)]


@settings(**dict(_SETTINGS, max_examples=100))
@given(_low_rank_lists())
def test_line_scan_matches_the_grid_scan_property(forms):
    _check_line_scan(forms)
