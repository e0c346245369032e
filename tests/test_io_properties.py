"""Property test of the liealg-v1 file format: save, load and save again.

Random bracket tables of dim <= 6 over Q, F_2, F_3 and F_5, with or without
labels, grading and a symmetric metric, load back equal to what was
saved, and saving the loaded pair again reproduces the file byte for
byte.
"""

import os
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from liealg.core import BilinearForm, LieAlgebra  # noqa: E402
from liealg.fields import QQ, PrimeField  # noqa: E402
from liealg.io import (algebra_to_document, document_to_algebra, load_algebra,  # noqa: E402
                       save_algebra)
from liealg.linalg import Matrix  # noqa: E402


@st.composite
def _algebras_with_metrics(draw):
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    if field == QQ:
        scalars = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    else:
        scalars = st.integers(0, field.characteristic - 1).map(field)
    dim = draw(st.integers(0, 6))
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            targets = draw(st.lists(st.integers(0, dim - 1), unique=True))
            brackets[(i, j)] = [(k, draw(scalars)) for k in targets]
    # a fixed alphabet (with non-ASCII and JSON-escaped characters)
    # spares hypothesis from building its Unicode tables on a first run
    labels = draw(st.none() | st.lists(st.text('aT0_ "\\é∂', max_size=3),
                                       min_size=dim, max_size=dim))
    grading = draw(st.none() | st.lists(st.integers(-3, 3),
                                        min_size=dim, max_size=dim))
    alg = LieAlgebra(field, dim, brackets, labels=labels, grading=grading)
    metric = None
    if draw(st.booleans()):
        grid = [[field.zero] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                grid[i][j] = grid[j][i] = draw(scalars)
        metric = BilinearForm(Matrix(field, grid))
    return alg, metric


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(case=_algebras_with_metrics())
def test_save_load_save_is_exact(case):
    alg, metric = case
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "first.json")
        second = os.path.join(tmp, "second.json")
        save_algebra(first, alg, metric)
        loaded, loaded_metric = load_algebra(first)
        save_algebra(second, loaded, loaded_metric)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert loaded == alg
    assert loaded_metric == metric


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(case=_algebras_with_metrics())
def test_loading_gives_the_constructed_integer_table(case):
    # the loader builds the table the constructor clears, and no scalar table
    alg, metric = case
    loaded, _ = document_to_algebra(algebra_to_document(alg, metric))
    assert loaded._sc is None
    assert (loaded._scale, loaded._isc) == (alg._scale, alg._isc)
    assert loaded.sc == alg.sc
