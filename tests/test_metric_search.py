"""The integer metric search against a scalar reference.

``_ref_first_metric`` is the search the integer one replaced: it adds
``Fraction``/``FpElement`` matrices t_a F_a point by point and takes
each sum's determinant.  The integer search must stop at the same first
point and return an equal form, on seeded form lists over Q (large mixed
denominators) and over F_2, F_3, F_5 (coefficients wrapping mod p), on
lists whose sums are degenerate or cancel, and on the invariant forms of
direct sums and rotated family members.
"""

import itertools
import random
from fractions import Fraction

import pytest

from liealg.core import BilinearForm, LieAlgebra, direct_sum
from liealg.family import truncated_algebra
from liealg.fields import PrimeField, QQ
from liealg.linalg import Matrix, _clear, _sparse, det
from liealg.selfdual import _first_metric, _seeded_points, invariant_form_space
from test_sparse_oracle import _rotated

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def _ref_first_metric(forms, points):
    """(point, form) of the first sum with a nonzero determinant, or None."""
    field = forms[0].field
    for coeffs in points:
        acc = forms[0].scale(field(coeffs[0]))
        for f, c in zip(forms[1:], coeffs[1:]):
            acc = acc.add(f.scale(field(c)))
        if det(acc.matrix) != field.zero:
            return coeffs, acc
    return None


def _searched(forms, points):
    """The integer search's (point, form), the point being the last one
    it read (it stops at the winner), or None."""
    seen = []

    def tracked():
        for point in points:
            seen.append(point)
            yield point
    form = _first_metric(forms, tracked())
    return None if form is None else (seen[-1], form)


def _point_lists(rng, s, d, p):
    """The grid, the seeded points, and points wrapping mod p."""
    q = min(d + 1, p) if p else d + 1
    grid = list(itertools.islice(itertools.product(range(q), repeat=s), 64))
    seeded = list(itertools.islice(_seeded_points(s, d), 16))
    wide = p or 7
    wrapped = [tuple(rng.randint(-2 * wide, 2 * wide) for _ in range(s))
               for _ in range(16)]
    return grid, seeded, wrapped


def _scalar(rng, field):
    if field.characteristic:
        return field(rng.randint(-50, 50))
    den = rng.choice((1, 2, 7, 12, 1001, 2 ** 31 - 1, 10 ** 9 + 7, 3 ** 19))
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), den)


def _symmetric(rng, field, d, density):
    zero = field.zero
    grid = [[zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if rng.random() < density:
                grid[i][j] = grid[j][i] = _scalar(rng, field)
    return BilinearForm(Matrix(field, grid))


def _low_rank(rng, field, d):
    """A rank-one form v v^T: every sum of fewer than d of them is degenerate."""
    v = [_scalar(rng, field) for _ in range(d)]
    return BilinearForm(Matrix(field, [[a * b for b in v] for a in v]))


def _seeded_lists(field, seed):
    rng = random.Random(seed)
    for _ in range(4):
        d, s = rng.randint(1, 6), rng.randint(1, 4)
        yield [_symmetric(rng, field, d, rng.choice((0.3, 0.7, 1.0))) for _ in range(s)]
    d = rng.randint(3, 5)
    yield [_low_rank(rng, field, d) for _ in range(d + 1)]
    f = _symmetric(rng, field, 4, 1.0)
    # (1, 1) and (-1, -1) cancel, and the zero form never contributes
    yield [f, f.scale(field(-1)), BilinearForm.zero(field, 4)]
    yield [f.scale(field(2)), f.scale(field(-2)), _low_rank(rng, field, 4)]


def _algebra_lists():
    a3 = truncated_algebra(3)
    yield invariant_form_space(direct_sum(a3, a3))
    for n in (4, 5):
        for seed in range(2):
            yield invariant_form_space(_rotated(truncated_algebra(n), seed))
    yield invariant_form_space(direct_sum(truncated_algebra(3, field=F5),
                                          truncated_algebra(3, field=F5)))


def _check_against_reference(forms, seed):
    p = forms[0].field.characteristic
    found = 0
    for points in _point_lists(random.Random(seed), len(forms), forms[0].dim, p):
        expected = _ref_first_metric(forms, points)
        assert _searched(forms, points) == expected
        found += expected is not None
    return found


@pytest.mark.parametrize("field", (QQ, F2, F3, F5), ids=str)
def test_search_matches_the_scalar_reference(field):
    found = sum(_check_against_reference(forms, seed)
                for seed, forms in enumerate(_seeded_lists(field, 17)))
    assert found > 0


def test_search_matches_the_scalar_reference_on_invariant_forms():
    outcomes = [_check_against_reference(forms, seed)
                for seed, forms in enumerate(_algebra_lists())]
    assert outcomes[0] > 0 and outcomes[-1] > 0  # the direct sums have metrics
    assert outcomes[1:5] == [0, 0, 0, 0]  # rotated A4, A5 have none


def test_cancelling_and_degenerate_sums_are_skipped():
    f = _symmetric(random.Random(5), QQ, 3, 1.0)
    assert f.is_nondegenerate()
    forms = [f, f.scale(-1)]
    assert _searched(forms, [(1, 1), (0, 0), (2, 1)]) == ((2, 1), f)
    assert _searched(forms, [(1, 1), (-3, -3)]) is None


def test_invariant_forms_carry_their_cleared_rows():
    """The forms built from kernel rows hold exactly the integer rows and
    denominator lcm that clearing their matrices gives."""
    a3 = truncated_algebra(3)
    for alg in (direct_sum(a3, a3), _rotated(truncated_algebra(5), 0),
                truncated_algebra(6, field=F3), LieAlgebra(QQ, 3, {})):
        for form in invariant_form_space(alg):
            scale, rows = form._cleared()
            assert (scale, rows) == _clear(alg.field, map(_sparse, form.matrix.rows))
            assert form == BilinearForm(form.matrix)
            assert form.is_nondegenerate() == (det(form.matrix) != alg.field.zero)
