"""The integer elimination kernel against a Fraction/FpElement reference.

The reference below is the scalar Gauss-Jordan kernel the integer one
replaced (rows of field scalars, each pivot divided out to 1 as it is
stored), kept here as an oracle: every result of the integer kernel must
equal it bit for bit, and every scalar leaving the kernel or a scan must
be a canonical ``Fraction`` or ``FpElement``, never a raw ``int``.  The
kernel inserts rows sparsest first; on dense rotated systems that must
give the echelon of the order the rows were handed over in, with less
coefficient growth.
"""

import random
from fractions import Fraction

import pytest

from liealg import linalg
from liealg.core import BilinearForm, LieAlgebra, direct_sum
from liealg.family import canonical_metric, truncated_algebra
from liealg.fields import FpElement, PrimeField, QQ
from liealg.linalg import Matrix, ShapeError, Subspace, det, nullspace, rank, rref, solve
from liealg.selfdual import invariant_form_space, orthogonal_complement

from test_sparse_oracle import _assembled_invariant_form_space, _rotated, _rotation

F2, F5, F7 = PrimeField(2), PrimeField(5), PrimeField(7)
F61 = PrimeField(2 ** 61 - 1)
FIELDS = (QQ, F2, F5, F61)


# -- the reference kernel --------------------------------------------------------

def _ref_reduce(echelon, row):
    for p in [c for c in row if c in echelon]:
        f = row[p]
        for c, y in echelon[p].items():
            x = row.get(c)
            x = -f * y if x is None else x - f * y
            if x:
                row[c] = x
            else:
                del row[c]


def _ref_insert(echelon, row):
    _ref_reduce(echelon, row)
    if not row:
        return None
    pivot = min(row)
    lead = row[pivot]
    row = {c: x / lead for c, x in row.items()}
    single = {pivot: row}
    for other in echelon.values():
        if pivot in other:
            _ref_reduce(single, other)
    echelon[pivot] = row
    return pivot, lead


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _ref_echelon(rows):
    echelon = {}
    for r in rows:
        _ref_insert(echelon, _sparse(r))
    return echelon


def _ref_dense(row, n, zero):
    return tuple(row.get(c, zero) for c in range(n))


def _ref_basis(field, n, rows):
    echelon = _ref_echelon(rows)
    return tuple(_ref_dense(echelon[p], n, field.zero) for p in sorted(echelon))


def _ref_rref(m):
    echelon = _ref_echelon(m.rows)
    pivots = sorted(echelon)
    zero = m.field.zero
    rows = [_ref_dense(echelon[p], m.ncols, zero) for p in pivots]
    rows += [(zero,) * m.ncols] * (m.nrows - len(pivots))
    return Matrix(m.field, rows), pivots


def _ref_nullspace(m):
    echelon = _ref_echelon(m.rows)
    one, zero = m.field.one, m.field.zero
    free = {f: {f: one} for f in range(m.ncols) if f not in echelon}
    for p, row in echelon.items():
        for f, x in row.items():
            if f != p:
                free[f][p] = -x
    return _ref_basis(m.field, m.ncols, [_ref_dense(v, m.ncols, zero)
                                         for v in free.values()])


def _ref_det(m):
    echelon = {}
    result = m.field.one
    for r in m.rows:
        found = _ref_insert(echelon, _sparse(r))
        if found is None:
            return m.field.zero
        pivot, lead = found
        if sum(1 for p in echelon if p > pivot) % 2:
            lead = -lead
        result = result * lead
    return result


def _ref_solve(m, b):
    n = m.ncols
    echelon = _ref_echelon([list(r) + [m.field(x)] for r, x in zip(m.rows, b)])
    if n in echelon:
        return None
    zero = m.field.zero
    return tuple(echelon[c].get(n, zero) if c in echelon else zero for c in range(n))


def _ref_reduce_vector(basis, v, zero):
    echelon = {min(_sparse(u)): _sparse(u) for u in basis}
    row = _sparse(v)
    _ref_reduce(echelon, row)
    return _ref_dense(row, len(v), zero)


def _ref_intersect(field, n, u_basis, v_basis):
    zero = field.zero
    rows = [list(u) + list(u) for u in u_basis] + [list(v) + [zero] * n for v in v_basis]
    echelon = _ref_echelon(rows)
    return _ref_basis(field, n, [_ref_dense({c - n: x for c, x in row.items()}, n, zero)
                                 for p, row in echelon.items() if p >= n])


# -- inputs ----------------------------------------------------------------------

def _scalar(rng, field):
    """Huge mixed-sign p/q over Q (|p|, |q| up to 10^12) half the time,
    small integers otherwise; uniform residues over F_p."""
    if field != QQ:
        return field(rng.randrange(field.characteristic))
    if rng.random() < 0.5:
        return Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))
    return Fraction(rng.randint(-3, 3))


def _matrix(rng, field, nrows, ncols, density):
    return Matrix(field, [[_scalar(rng, field) if rng.random() < density else field.zero
                           for _ in range(ncols)] for _ in range(nrows)])


def _matrices(rng, field):
    """Random shapes and densities, all-zero, rank-deficient products,
    duplicated and proportional rows."""
    for _ in range(10):
        yield _matrix(rng, field, rng.randint(1, 7), rng.randint(1, 7),
                      rng.choice((0.2, 0.6, 1.0)))
    yield Matrix.zeros(field, 3, 4)
    yield Matrix.zeros(field, 4, 4)
    for k in (1, 2, 3):
        yield _matrix(rng, field, 5, k, 1.0) * _matrix(rng, field, k, 5, 1.0)
    rows = list(_matrix(rng, field, 3, 5, 0.7).rows) * 2
    rng.shuffle(rows)
    yield Matrix(field, rows)
    base = list(_matrix(rng, field, 4, 4, 1.0).rows)
    base[2] = tuple(field(-3) / field(7) * x for x in base[0])
    yield Matrix(field, base)


# -- kernel oracle ---------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_matches_the_scalar_reference(field):
    rng = random.Random(83 + field.characteristic % 1000)
    for _ in range(4):
        for m in _matrices(rng, field):
            assert rref(m) == _ref_rref(m)
            assert rank(m) == len(_ref_rref(m)[1])
            assert nullspace(m).basis == _ref_nullspace(m)
            if m.is_square():
                assert det(m) == _ref_det(m)
            x0 = [_scalar(rng, field) for _ in range(m.ncols)]
            for b in (m * x0, [_scalar(rng, field) for _ in range(m.nrows)]):
                assert solve(m, b) == _ref_solve(m, b)
            s = Subspace(field, m.ncols, m.rows)
            assert s.basis == _ref_basis(field, m.ncols, m.rows)
            vecs = list(m.rows) * 2
            rng.shuffle(vecs)
            assert Subspace(field, m.ncols, vecs) == s
            v = [_scalar(rng, field) for _ in range(m.ncols)]
            assert s.reduce(v) == _ref_reduce_vector(s.basis, v, field.zero)
            assert s.contains(v) == (not any(s.reduce(v)))
            t = Subspace(field, m.ncols, _matrix(rng, field, rng.randint(0, m.ncols),
                                                 m.ncols, 0.8).rows)
            assert s.intersect(t).basis == _ref_intersect(field, m.ncols, s.basis, t.basis)
            assert s.add(t).basis == _ref_basis(field, m.ncols, s.basis + t.basis)
            assert s.contains_subspace(s.intersect(t))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_det_tracks_row_scalings_exactly(field):
    """Rows with large, unlike denominators: the scale each row is
    cleared by and the multiplier of every reduction must cancel."""
    rng = random.Random(89 + field.characteristic % 1000)
    for n in range(1, 7):
        m = _matrix(rng, field, n, n, 1.0)
        assert det(m) == _ref_det(m)
        scales = [_scalar(rng, field) or field.one for _ in range(n)]
        want = det(m)
        for c in scales:
            want = want * c
        assert det(Matrix(field, [[c * x for x in r] for c, r in zip(scales, m.rows)])) == want


# -- Subspace.coordinate -----------------------------------------------------------

def test_coordinate_subspaces_are_built_directly_and_checked():
    e = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert Subspace.coordinate(QQ, 4, [2, 0, 2]) == Subspace(QQ, 4, [e[0], e[2]])
    assert Subspace.coordinate(QQ, 4, [2, 0, 2]).basis == Subspace(QQ, 4, [e[2], e[0]]).basis
    assert Subspace.coordinate(F5, 4, []) == Subspace.zero(F5, 4)
    assert Subspace.full(QQ, 4) == Subspace(QQ, 4, e)
    for bad in ([-1], [3], [0, 3]):
        with pytest.raises(ShapeError):
            Subspace.coordinate(QQ, 3, bad)
    with pytest.raises(TypeError):
        Subspace.coordinate(QQ, 3, [1.0])


# -- the boundary ----------------------------------------------------------------

def _scalar_type(field):
    return Fraction if field == QQ else FpElement


def _all_typed(values, field):
    values = list(values)
    kind = _scalar_type(field)
    return all(type(x) is kind for x in values)


@pytest.mark.parametrize("field", (QQ, F5, F61), ids=str)
def test_no_raw_integer_leaves_the_kernel(field):
    rng = random.Random(97)
    m = _matrix(rng, field, 5, 5, 0.8)
    singular = Matrix(field, list(m.rows[:4]) + [m.rows[0]])
    reduced, _ = rref(m)
    s = Subspace(field, 5, m.rows[:3])
    t = Subspace(field, 5, m.rows[2:])
    for values in ([det(m), det(singular), det(Matrix(field, []))],
                   [x for r in reduced.rows for x in r],
                   solve(m, m * [field(1), field(2), field(0), field(0), field(3)]),
                   solve(singular, singular.col(0)),
                   [x for v in nullspace(singular).basis for x in v],
                   [x for v in s.basis + t.basis + s.intersect(t).basis for x in v],
                   [x for v in s.add(t).basis for x in v],
                   s.reduce([field(1)] * 5), s.reduce(m.rows[0]),
                   [x for v in Subspace.coordinate(field, 5, [1, 3]).basis for x in v],
                   [x for v in Subspace.full(field, 5).basis for x in v]):
        assert values is not None and _all_typed(values, field)


@pytest.mark.parametrize("field", (QQ, F5), ids=str)
def test_no_raw_integer_leaves_the_scans(field):
    alg = truncated_algebra(6, field=field)
    if field == QQ:
        alg = LieAlgebra(QQ, 7, {key: [(k, c * Fraction(7, 10)) for k, c in terms]
                                 for key, terms in alg.sc.items()})
    broken = LieAlgebra(field, 7, {**alg.sc, (1, 2): [(5, field(1) / field(3))]})
    form = BilinearForm(canonical_metric(6, 1, field).matrix.scale(field(2) / field(3)))
    witness = broken.check_jacobi()
    assert witness is not None and _all_typed(witness.defect, field)
    assert _all_typed((x for r in alg.killing_form().matrix.rows for x in r), field)
    assert _all_typed((x for r in broken.killing_form().matrix.rows for x in r), field)
    e = alg.basis_vector
    assert _all_typed(alg.bracket(e(1), [field(1) / field(2)] * 7), field)
    for sub in (Subspace.coordinate(field, 7, [0, 6]), alg.derived_series()[1],
                alg.lower_central_series()[1], alg.center()):
        assert _all_typed((x for v in sub.basis for x in v), field)
        assert _all_typed((x for r in form.restrict(sub).rows for x in r), field)
    assert _all_typed((x for v in alg.derivation_space().space.basis for x in v), field)
    forms = invariant_form_space(alg)
    assert forms and _all_typed((x for f in forms for r in f.matrix.rows for x in r), field)


# -- insertion order -------------------------------------------------------------

def _given_order(rows, p):
    """The echelon of the rows inserted in the order they come in, in
    pivot order as ``_echelon`` returns it."""
    echelon, cols = {}, set()
    for r in rows:
        linalg._insert(echelon, r, p, cols)
    return dict(sorted(echelon.items()))


def _rotated_cases(field):
    """Seeded L U rotations of A3+A3, A5 and A6; the metric ones carry
    their metric along, P^T B P."""
    a3 = truncated_algebra(3, field=field)
    b3 = canonical_metric(3, 1, field).matrix.rows
    zero = (field.zero,) * 4
    block = Matrix(field, [r + zero for r in b3] + [zero + r for r in b3])
    for seed, alg, metric in ((0, direct_sum(a3, a3), block),
                              (1, truncated_algebra(5, field=field), None),
                              (2, truncated_algebra(6, field=field),
                               canonical_metric(6, 1, field).matrix)):
        p = _rotation(field, alg.dim, seed)
        yield _rotated(alg, seed), metric and BilinearForm(p.transpose() * metric * p)


def _solved(alg, form):
    derived = alg.derived_series()
    spaces = [alg.center(), *derived, *alg.lower_central_series()]
    if form is not None:
        spaces += [orthogonal_complement(alg, form, s) for s in derived]
    return invariant_form_space(alg), spaces


@pytest.mark.parametrize("field", (QQ, F5, F7), ids=str)
def test_sparsest_first_gives_the_echelon_of_the_given_order(field, monkeypatch):
    sorted_echelon, calls = linalg._echelon, []

    def recording(rows, p):
        rows = list(rows)
        calls.append(([dict(r) for r in rows], p))
        return sorted_echelon(rows, p)

    for alg, form in _rotated_cases(field):
        calls.clear()
        monkeypatch.setattr(linalg, "_echelon", recording)
        forms, spaces = _solved(alg, form)
        monkeypatch.setattr(linalg, "_echelon", _given_order)
        given_forms, given_spaces = _solved(alg, form)
        monkeypatch.undo()
        assert forms == given_forms
        assert spaces == given_spaces and list(map(hash, spaces)) == list(map(hash, given_spaces))
        assert any(len({len(r) for r in rows}) > 1 for rows, _ in calls)
        for rows, p in calls:
            got, want = sorted_echelon([dict(r) for r in rows], p), _given_order(rows, p)
            assert got == want and list(got) == list(want)


def test_sparsest_first_limits_growth_on_a_rotated_system(monkeypatch):
    """The invariant-form systems of rotated A3+A3 in the d(d+1)/2
    unknowns of the assembled reference (103 to 140 equations in 36
    unknowns, rank 31): fewer reductions and smaller entries, stored and
    in the working rows, than in the order the equations come in."""
    real_insert, real_reduce = linalg._insert, linalg._reduce

    def growth(alg, echelon):
        peak, reductions = [0, 0], []

        def insert(e, row, p, cols):
            found = real_insert(e, row, p, cols)
            peak[0] = max(peak[0], 0, *(abs(x).bit_length()
                                        for r in e.values() for x in r.values()))
            return found

        def reduce(e, row, p):
            reductions.append(1)
            m = real_reduce(e, row, p)
            peak[1] = max(peak[1], 0, *(abs(x).bit_length() for x in row.values()))
            return m

        monkeypatch.setattr(linalg, "_echelon", echelon)
        monkeypatch.setattr(linalg, "_insert", insert)
        monkeypatch.setattr(linalg, "_reduce", reduce)
        forms = _assembled_invariant_form_space(alg)
        monkeypatch.undo()
        return forms, peak, len(reductions)

    a3 = truncated_algebra(3)
    for seed in range(3):
        alg = _rotated(direct_sum(a3, a3), seed)
        forms, peak, reductions = growth(alg, linalg._echelon)
        given_forms, given_peak, given_reductions = growth(alg, _given_order)
        assert forms == given_forms and len(forms) == 5
        assert peak[0] < given_peak[0] and peak[1] < given_peak[1]
        assert reductions < given_reductions
