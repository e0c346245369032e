"""The integer metric search against a scalar reference.

``_ref_first_metric`` is the search the integer one replaced: it adds
``Fraction``/``FpElement`` matrices t_a F_a point by point and takes
each sum's determinant.  The integer search must stop at the same first
point and return an equal form, on seeded form lists over Q (large mixed
denominators) and over F_2, F_3, F_5 (coefficients wrapping mod p), on
lists whose sums are degenerate or cancel, and on the invariant forms of
direct sums and rotated family members.

The grid certificate of ``is_self_dual`` skips the grid points with one
nonzero coordinate, multiples of the basis forms (``_grid_points``).
Against the full lexicographic scan of {0..q-1}^s through ``_sums`` it
must stop at the same first point with an equal form, or find nothing
exactly when the full scan does, on every list whose single forms are
all degenerate (the case the grid sees); ``is_self_dual`` must answer
exactly as with the full scan, and the determinant counts of the
benchmark's algebras are pinned with the center lemma off.  With it on,
those algebras take no determinant at all and answer the same.
``tests/test_scan_properties.py`` runs the same comparison on
hypothesis-drawn lists.
"""

import itertools
import random
from fractions import Fraction

import pytest

from liealg import core, selfdual
from liealg.core import BilinearForm, LieAlgebra, direct_sum
from liealg.family import truncated_algebra
from liealg.fields import PrimeField, QQ
from liealg.hats import IDENTITY_HAT
from liealg.linalg import Matrix, _clear, _sparse, det
from liealg.selfdual import (_grid_points, _seeded_points, _sums, invariant_form_space,
                             is_self_dual)
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
    """The integer search's (point, form): the first non-degenerate sum of
    ``_sums``, the point being the last one it read (the sums are built
    one at a time, so it stops at the winner), or None."""
    seen = []

    def tracked():
        for point in points:
            seen.append(point)
            yield point
    form = next((f for f in _sums(forms, tracked()) if f.is_nondegenerate()), None)
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


# ---------------------------------------------------------------------------
# the grid certificate on the points with two or more nonzero coordinates
# ---------------------------------------------------------------------------

def _grid_side(forms):
    field = forms[0].field
    p, d = field.characteristic, forms[0].dim
    return min(d + 1, p) if p else d + 1


def _check_line_scan(forms):
    """The scan of ``_grid_points`` finds the full grid scan's (point,
    form); returns whether a metric was found."""
    assert not any(f.is_nondegenerate() for f in forms)
    s, q = len(forms), _grid_side(forms)
    full = _searched(forms, itertools.product(range(q), repeat=s))
    assert _searched(forms, _grid_points(s, q)) == full
    return full is not None


def _low_rank_sum(rng, field, d, rank, radical=False):
    """A sum of ``rank`` rank-one forms v v^T; with ``radical`` every v
    has v_0 = 0, so x_0 is in the radical of every sum of them."""
    form = BilinearForm.zero(field, d)
    for _ in range(rank):
        v = [_scalar(rng, field) for _ in range(d)]
        if radical:
            v[0] = field.zero
        form = form.add(BilinearForm(Matrix(field, [[a * b for b in v] for a in v])))
    return form


def _degenerate_lists(field, seed):
    """Form lists whose single forms are all degenerate: low-rank sums,
    with and without a common radical, and the seeded corpus's lists
    that qualify."""
    rng = random.Random(seed)
    for _ in range(6):
        d, s = rng.randint(2, 5), rng.randint(2, 4)
        radical = rng.random() < 0.3
        yield [_low_rank_sum(rng, field, d, rng.randint(0, d - 1), radical)
               for _ in range(s)]
    for forms in _seeded_lists(field, seed):
        if (not any(f.is_nondegenerate() for f in forms)
                and _grid_side(forms) ** len(forms) <= 2401):
            yield forms


def test_grid_points_are_the_ordered_grid_without_the_axes():
    for s in range(5):
        for q in range(2, 8):
            expected = [t for t in itertools.product(range(q), repeat=s)
                        if sum(map(bool, t)) >= 2]
            points = list(_grid_points(s, q))
            assert points == expected
            assert len(points) == q ** s - 1 - s * (q - 1)


@pytest.mark.parametrize("field", (QQ, F2, F3, F5), ids=str)
def test_line_scan_matches_the_grid_scan(field):
    found = [_check_line_scan(forms)
             for seed in (3, 17, 29) for forms in _degenerate_lists(field, seed)]
    assert len(found) >= 18 and any(found) and not all(found)


def _nonmetric_algebras():
    yield "A4", truncated_algebra(4)
    yield "A5", truncated_algebra(5)
    yield "h3", LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]})
    yield "W10", truncated_algebra(10, IDENTITY_HAT)
    for n in (4, 5):
        for seed in range(2):
            yield f"rotated A{n} #{seed}", _rotated(truncated_algebra(n), seed)
    for field in (F2, F3, F5):
        for n in (2, 4, 5):
            yield f"A{n}/{field}", truncated_algebra(n, field=field)


def test_line_scan_matches_the_grid_scan_on_invariant_forms():
    lists = [forms for forms in _algebra_lists() if len(forms) > 1]
    lists += [invariant_form_space(alg) for _, alg in _nonmetric_algebras()]
    found = [_check_line_scan(forms) for forms in lists
             if not any(f.is_nondegenerate() for f in forms)]
    assert len(found) >= 15 and any(found) and not all(found)


def _is_self_dual_by_full_grid(alg, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(selfdual, "_grid_points",
                  lambda s, q: itertools.product(range(q), repeat=s))
        return is_self_dual(alg)


def test_is_self_dual_answers_as_with_the_full_grid(monkeypatch):
    a3 = truncated_algebra(3)
    corpus = [alg for _, alg in _nonmetric_algebras()]
    corpus += [direct_sum(a3, a3), LieAlgebra(QQ, 2, {(0, 1): [(1, 1)]}),
               direct_sum(truncated_algebra(3, field=F5), truncated_algebra(3, field=F5))]
    corpus += [truncated_algebra(n, field=field) for field in (QQ, F2, F3, F5)
               for n in range(1, 9)]
    verdicts = set()
    for alg in corpus:
        answer = is_self_dual(alg)
        assert answer == _is_self_dual_by_full_grid(alg, monkeypatch)
        verdicts.add(answer.verdict)
    assert verdicts == {"yes", "no"}


# (filtered grid, full grid): s determinants of the basis forms, then one
# per grid point with two or more nonzero coordinates, or per grid point
_SEARCH_COUNTS = {"A4": (27, 38), "A5": (38, 51), "h3": (57, 67), "W10": (1, 13),
                  "rotated A4 #0": (27, 38), "rotated A4 #1": (27, 38),
                  "rotated A5 #0": (38, 51), "rotated A5 #1": (38, 51)}


def _determinants(alg, monkeypatch, lemma=True, full_grid=False):
    """``is_self_dual``'s answer and its number of determinants: every
    ``core.det`` call, so every non-degeneracy test of a candidate."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(core, "det", lambda rows: calls.append(rows) or det(rows))
        if not lemma:
            m.setattr(selfdual, "_center_lemma_rules_out", lambda alg: False)
        answer = _is_self_dual_by_full_grid(alg, monkeypatch) if full_grid else is_self_dual(alg)
    return answer, len(calls)


def test_search_determinant_counts(monkeypatch):
    """The benchmark's non-metric algebras end at the grid certificate:
    each basis form and each grid point with two or more nonzero
    coordinates costs one determinant, where the full grid costs one per
    grid point, and the certificate still names the whole grid.  Counted
    with the center lemma off, which skips all of these evaluations
    (``test_center_lemma_skips_the_determinants``)."""
    algebras = dict(_nonmetric_algebras())
    for name, counts in _SEARCH_COUNTS.items():
        answer, filtered = _determinants(algebras[name], monkeypatch, lemma=False)
        full, grid = _determinants(algebras[name], monkeypatch, lemma=False, full_grid=True)
        assert full == answer
        assert (filtered, grid) == counts, name
        assert answer.certificate["kind"] == "generic-determinant-zero"
        assert answer.certificate["grid_points"] == grid - answer.certificate["space_dim"]


def test_center_lemma_skips_the_determinants(monkeypatch):
    """With the center lemma the non-metric algebras of the count test
    test no candidate and answer as without it, while the metric A6 and
    A3+A3 keep their determinants."""
    algebras = dict(_nonmetric_algebras())
    for name in _SEARCH_COUNTS:
        answer, count = _determinants(algebras[name], monkeypatch)
        assert count == 0, name
        assert answer == _determinants(algebras[name], monkeypatch, lemma=False)[0], name
    a3 = truncated_algebra(3)
    for alg in (truncated_algebra(6), direct_sum(a3, a3)):
        answer, count = _determinants(alg, monkeypatch)
        assert answer.verdict == "yes" and count > 0
        assert (answer, count) == _determinants(alg, monkeypatch, lemma=False)
