"""Random tables: the center lemma of ``is_self_dual`` and the memoised structure.

For an invariant non-degenerate form, dim Z = dim - dim [L, L]; when
that fails, ``is_self_dual`` skips its determinant evaluations.  On the
random tables of ``test_form_closure_properties`` (over Q, F_2, F_3 and
F_5, with and without Jacobi) the answer must be the one the procedure
gives with the lemma switched off, and whenever the lemma fires no point
of the full grid gives a non-degenerate sum.  The center, [L, L] and
the series the algebra keeps once computed must equal those of a fresh
copy of its table, also after pickling and copying.
"""

import copy
import itertools
import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liealg import selfdual  # noqa: E402
from liealg.core import LieAlgebra  # noqa: E402
from liealg.selfdual import _sums, invariant_form_space, is_self_dual  # noqa: E402

from test_form_closure_properties import _SETTINGS, _lie_tables, _raw_tables  # noqa: E402

_TABLES = st.one_of(_raw_tables(), _lie_tables())
# grids larger than this are scanned in their first points only
_GRID_CAP = 2048


def _without_lemma(alg):
    lemma = selfdual._center_lemma_rules_out
    selfdual._center_lemma_rules_out = lambda alg: False
    try:
        return is_self_dual(alg)
    finally:
        selfdual._center_lemma_rules_out = lemma


@settings(**_SETTINGS)
@given(_TABLES)
def test_lemma_keeps_every_answer(alg):
    answer = is_self_dual(alg)
    assert answer == _without_lemma(alg)
    if not alg.dim or not selfdual._center_lemma_rules_out(alg):
        return
    event("the lemma fires")
    assert answer.metric is None
    forms = invariant_form_space(alg)
    if forms:
        p, d = alg.field.characteristic, alg.dim
        q = min(d + 1, p) if p else d + 1
        if q ** len(forms) > _GRID_CAP:
            event("the grid is scanned in part")
        grid = itertools.product(range(q), repeat=len(forms))
        assert not any(f.is_nondegenerate()
                       for f in _sums(forms, itertools.islice(grid, _GRID_CAP)))


def _fresh(alg):
    return LieAlgebra._of_cleared(alg.field, alg.dim, alg._scale, alg._isc,
                                  alg.labels, alg.grading)


def _structure(alg):
    return (alg.center(), alg._derived_algebra(), alg.derived_series(),
            alg.lower_central_series())


@settings(**_SETTINGS)
@given(_TABLES)
def test_memoised_structure_is_that_of_a_fresh_copy(alg):
    is_self_dual(alg)
    kept = _structure(alg)
    assert alg.center() is kept[0] and alg._derived_algebra() is kept[1]
    assert kept == _structure(_fresh(alg))
    for other in (pickle.loads(pickle.dumps(alg)), copy.copy(alg), copy.deepcopy(alg)):
        assert other == alg
        assert _structure(other) == kept
