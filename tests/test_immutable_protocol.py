"""The state protocol of the immutable value types.

``LieAlgebra``, ``BilinearForm``, ``Matrix`` and ``Subspace`` set their
state once through ``_Immutable._set``, which gives every slot a value
or None, and keep each lazy view in a slot that stays None until its
first read (``_Immutable._memo``).  A public ``__init__`` may keep a view
it already holds (``sc`` of a ``LieAlgebra``, ``matrix`` of a
``BilinearForm``); a trusted constructor and a pickle round trip keep
none.  The objects below come from every constructor.
"""

import pickle
from fractions import Fraction

import pytest

from liealg.core import BilinearForm, LieAlgebra
from liealg.family import canonical_metric, truncated_algebra
from liealg.fields import PrimeField, QQ
from liealg.linalg import Matrix, Subspace

F5 = PrimeField(5)

# the lazy slots of each type, and the views that fill them
_LAZY = {
    LieAlgebra: {"_sc": lambda a: a.sc, "_gens": lambda a: a._generators(),
                 "_derived": lambda a: a._derived_algebra(), "_center": lambda a: a.center()},
    BilinearForm: {"_matrix": lambda f: f.matrix},
    Matrix: {},
    Subspace: {"_basis": lambda s: s.basis},
}

# the views a public __init__ keeps
_KEPT = {LieAlgebra: {"_sc"}, BilinearForm: {"_matrix"}}

_PUBLIC = {
    "LieAlgebra": lambda: LieAlgebra(QQ, 3, {(0, 1): {2: Fraction(3, 4)},
                                             (0, 2): {1: Fraction(-5, 6)}},
                                     labels=("e", "f", "h"), grading=(1, -1, 0)),
    "LieAlgebra F5": lambda: LieAlgebra(F5, 2, {(0, 1): [(1, 3)]}),
    "BilinearForm": lambda: BilinearForm(Matrix(QQ, [[Fraction(1, 2), 3], [3, 0]])),
    "Matrix": lambda: Matrix(QQ, [[Fraction(1, 3), 2, 0], [0, Fraction(-7, 2), 5]]),
    "Matrix empty": lambda: Matrix(F5, []),
    "Subspace": lambda: Subspace(QQ, 3, [[Fraction(1, 2), 3, 0], [0, Fraction(2, 7), 1]]),
}

_TRUSTED = {
    "LieAlgebra._of_cleared": lambda: truncated_algebra(5),
    "LieAlgebra._of_cleared F3": lambda: truncated_algebra(6, field=PrimeField(3)),
    "BilinearForm._of_cleared": lambda: canonical_metric(4, Fraction(1, 2)),
    "Matrix._of_scalars": lambda: Matrix._of_scalars(QQ, ((Fraction(1, 2), 0), (0, 1))),
    "Subspace._span": lambda: Subspace._span(F5, 4, [{0: 2, 3: 1}, {1: 4}]),
    "Subspace.coordinate": lambda: Subspace.coordinate(QQ, 4, [3, 1]),
    "Subspace.coordinate empty": lambda: Subspace.coordinate(QQ, 0, []),
}

_PICKLED = {f"pickled {name}": (lambda make=make: pickle.loads(pickle.dumps(make())))
            for name, make in _PUBLIC.items()}

_ALL = {**_PUBLIC, **_TRUSTED, **_PICKLED}


@pytest.mark.parametrize("name", list(_ALL))
def test_every_slot_is_set(name):
    x = _ALL[name]()
    for slot in type(x).__slots__:
        getattr(x, slot)


@pytest.mark.parametrize("name", list(_ALL))
def test_lazy_slots_are_none_until_their_first_read(name):
    x = _ALL[name]()
    kept = _KEPT.get(type(x), set()) if name in _PUBLIC else set()
    for slot, read in _LAZY[type(x)].items():
        assert (getattr(x, slot) is not None) == (slot in kept)
        value = read(x)
        assert value is not None and getattr(x, slot) is value


@pytest.mark.parametrize("name", list(_ALL))
def test_views_are_the_same_object_on_a_second_read(name):
    x = _ALL[name]()
    for read in _LAZY[type(x)].values():
        assert read(x) is read(x)


def test_each_kind_of_constructor_covers_every_type():
    for makers in (_PUBLIC, _TRUSTED, _PICKLED):
        assert {type(make()) for make in makers.values()} == set(_LAZY)
