"""Copying and pickling the immutable value types.

``LieAlgebra``, ``BilinearForm``, ``Matrix`` and ``Subspace`` forbid
attribute assignment, so ``copy`` hands back the object itself and
``pickle`` rebuilds it from its canonical state through the private
constructors.  A round trip must give an equal object with an equal
hash and the same integer state, over Q and over F_p, for objects made
by the public constructors and by the kernel paths alike, under every
pickle protocol (F_p scalars reduce to their prime and residue, which
protocols 0 and 1 need for a slotted class).
"""

import copy
import pickle
from fractions import Fraction

import pytest

from liealg.core import BilinearForm, LieAlgebra, direct_sum
from liealg.family import canonical_metric, truncated_algebra
from liealg.fields import PrimeField, QQ
from liealg.linalg import Matrix, Subspace
from liealg.selfdual import invariant_form_space, is_self_dual

F3, F5 = PrimeField(3), PrimeField(5)


def _algebras():
    yield truncated_algebra(5)
    yield truncated_algebra(6, field=F3)
    yield LieAlgebra(QQ, 3, {(0, 1): {2: Fraction(3, 4)}, (0, 2): {1: Fraction(-5, 6)}},
                     labels=("e", "f", "h"), grading=(1, -1, 0))
    yield LieAlgebra(F5, 2, {(0, 1): [(1, 3)]})
    yield LieAlgebra(QQ, 0, {})


def _values():
    for alg in _algebras():
        yield alg
        yield alg.derived_series()[-1]
        yield alg.center()
        yield from alg.lower_central_series()
        yield from invariant_form_space(alg)
    a3 = truncated_algebra(3)
    metric = is_self_dual(direct_sum(a3, a3)).metric
    yield metric
    yield metric.matrix
    yield canonical_metric(4)
    yield BilinearForm.from_entries(F5, [[1, 2], [2, 0]])
    yield Matrix(QQ, [[Fraction(1, 3), 2, 0], [0, Fraction(-7, 2), 5]])
    yield Matrix(F3, [[1, 2], [0, 1], [2, 2]])
    yield Matrix(QQ, [])
    yield Subspace(QQ, 3, [[Fraction(1, 2), 3, 0], [0, Fraction(2, 7), 1]])
    yield Subspace(F5, 4, [[1, 2, 3, 4], [2, 4, 1, 3], [0, 0, 1, 1]])
    # the sparsest row is not the first pivot's
    yield Subspace(QQ, 4, [[1, -2, 1, 1], [1, 1, 1, 3], [3, 0, 3, 0]])
    yield Subspace.coordinate(F5, 4, [3, 1])
    yield Subspace.zero(QQ, 2)


def _state(x):
    """Everything an object holds, lazy views read first."""
    if isinstance(x, LieAlgebra):
        return (x.field, x.dim, x.labels, x.grading, x._scale, x._isc, x.sc)
    if isinstance(x, BilinearForm):
        return (x.field, x.dim, x._cleared(), x.matrix)
    if isinstance(x, Matrix):
        return (x.field, x.nrows, x.ncols, x.rows)
    return (x.field, x.ambient_dim, list(x._echelon.items()), x.basis)


def test_copies_are_the_object_itself():
    values = list(_values())
    assert {type(x) for x in values} == {LieAlgebra, BilinearForm, Matrix, Subspace}
    for x in values:
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
    nested = copy.deepcopy({"all": values})
    assert all(a is b for a, b in zip(nested["all"], values))


@pytest.mark.parametrize("protocol", range(0, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for x in _values():
        y = pickle.loads(pickle.dumps(x, protocol))
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert _state(y) == _state(x)


def test_unpickled_objects_stay_immutable_and_usable():
    alg = pickle.loads(pickle.dumps(truncated_algebra(4, field=F5)))
    with pytest.raises(AttributeError, match="immutable"):
        alg.dim = 3
    assert alg.check_jacobi() is None
    assert is_self_dual(alg) == is_self_dual(truncated_algebra(4, field=F5))
