"""Matrices with no rows or no columns keep their shape.

A 0 x n matrix has rank 0 and the whole n-dimensional space as its
kernel; an n x 0 matrix has rank 0 and a zero-dimensional kernel.
Products through an empty inner dimension are zero matrices of the outer
shape.  Checked over Q and F_5.
"""

import pickle

import pytest

from liealg.fields import PrimeField, QQ
from liealg.linalg import Matrix, ShapeError, Subspace, nullspace, rank, rref, solve

FIELDS = [QQ, PrimeField(5)]


def _shape(m):
    return m.nrows, m.ncols, len(m.rows), {len(r) for r in m.rows}


def _empties(field):
    return [Matrix.zeros(field, 0, 3), Matrix.zeros(field, 3, 0), Matrix(field, [[], []]),
            Matrix.zeros(field, 0, 0), Matrix(field, [])]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zeros_and_transpose_keep_the_shape(field):
    assert _shape(Matrix.zeros(field, 0, 3)) == (0, 3, 0, set())
    assert _shape(Matrix.zeros(field, 3, 0)) == (3, 0, 3, {0})
    assert _shape(Matrix.zeros(field, 0, 3).transpose()) == (3, 0, 3, {0})
    assert _shape(Matrix.zeros(field, 3, 0).transpose()) == (0, 3, 0, set())
    assert Matrix(field, []).transpose() == Matrix(field, [])
    for shape in ((-1, 3), (3, -1)):
        with pytest.raises(ShapeError):
            Matrix.zeros(field, *shape)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_plus_nullity_is_the_column_count(field):
    assert nullspace(Matrix.zeros(field, 0, 3)).dim == 3
    assert nullspace(Matrix.zeros(field, 3, 0)).dim == 0
    for m in _empties(field):
        assert rank(m) == 0
        assert nullspace(m).dim == m.ncols
        assert nullspace(m) == Subspace.full(field, m.ncols)
        assert solve(m, [field.zero] * m.nrows) == (field.zero,) * m.ncols
        reduced, pivots = rref(m)
        assert (reduced, pivots) == (m, [])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_on_empty_shapes(field):
    assert solve(Matrix.zeros(field, 0, 3), []) == (field.zero,) * 3
    assert solve(Matrix.zeros(field, 2, 0), [0, 0]) == ()
    assert solve(Matrix.zeros(field, 2, 0), [0, 1]) is None


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_products_through_an_empty_inner_dimension(field):
    assert Matrix.zeros(field, 0, 3) * Matrix.zeros(field, 3, 2) == Matrix.zeros(field, 0, 2)
    assert Matrix(field, [[], []]) * Matrix.zeros(field, 0, 4) == Matrix.zeros(field, 2, 4)
    assert Matrix.zeros(field, 3, 0) * Matrix.zeros(field, 0, 3) == Matrix.zeros(field, 3, 3)
    assert Matrix.zeros(field, 0, 3) * [1, 2, 3] == ()
    assert Matrix.zeros(field, 3, 0) * [] == (field.zero,) * 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_elementwise_operations_keep_the_shape(field):
    m = Matrix.zeros(field, 0, 3)
    for out in (m.scale(2), -m, m + m, m - m):
        assert _shape(out) == (0, 3, 0, set())
    assert Subspace.zero(field, 4).basis_matrix() == Matrix.zeros(field, 0, 4)
    assert Subspace.full(field, 2).basis_matrix() == Matrix.identity(field, 2)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_equality_and_pickle_see_the_column_count(field):
    assert Matrix.zeros(field, 0, 3) != Matrix.zeros(field, 0, 5)
    m = pickle.loads(pickle.dumps(Matrix.zeros(field, 0, 3)))
    assert m == Matrix.zeros(field, 0, 3) and _shape(m) == (0, 3, 0, set())
    assert pickle.loads(pickle.dumps(Matrix(field, []))) == Matrix(field, [])
