"""Exact linear algebra: fields, RREF, kernels, determinants, subspaces."""

import random
from fractions import Fraction

import pytest

from liealg.core import BilinearForm
from liealg.fields import FieldMismatchError, FpElement, PrimeField, QQ
from liealg.linalg import Matrix, ShapeError, Subspace, det, nullspace, rank, rref, solve

F2 = PrimeField(2)
F5 = PrimeField(5)


def _random_matrix(rng, field, nrows, ncols, lo=-5, hi=5):
    return Matrix(field, [[field(rng.randint(lo, hi)) for _ in range(ncols)]
                          for _ in range(nrows)])


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(97)


def test_fp_arithmetic():
    a = F5(3)
    b = F5(4)
    assert a + b == F5(2)
    assert a * b == F5(2)
    assert a - b == F5(4)
    assert (a / b) * b == a
    assert -a == F5(2)
    assert bool(F5(0)) is False
    assert a == 3 and a != 4


def test_rationals_coerce():
    assert QQ(2) == Fraction(2)
    assert QQ(Fraction(3, 6)) == Fraction(1, 2)
    assert QQ.zero == 0 and QQ.one == 1
    assert QQ.characteristic == 0
    assert F5.characteristic == 5


def test_matrix_immutable():
    m = Matrix.identity(QQ, 2)
    with pytest.raises(AttributeError):
        m.rows = ()


def test_matrix_shape_errors():
    with pytest.raises(ShapeError):
        Matrix(QQ, [[1, 2], [3]])
    a = Matrix(QQ, [[1, 2]])
    with pytest.raises(ShapeError):
        a + Matrix.identity(QQ, 2)
    with pytest.raises(ShapeError):
        a * Matrix(QQ, [[1, 2]])
    with pytest.raises(ShapeError):
        det(a)
    with pytest.raises(FieldMismatchError):
        Matrix.identity(QQ, 2) + Matrix.identity(F5, 2)


def test_rref_rank_one():
    reduced, pivots = rref(Matrix(QQ, [[2, 4], [1, 2]]))
    assert reduced == Matrix(QQ, [[1, 2], [0, 0]])
    assert pivots == [0]


def test_rref_identity_fixed():
    eye = Matrix.identity(QQ, 3)
    reduced, pivots = rref(eye)
    assert reduced == eye
    assert pivots == [0, 1, 2]


def test_rref_mod2():
    reduced, _ = rref(Matrix(F2, [[1, 1], [1, 0]]))
    assert reduced == Matrix.identity(F2, 2)


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, QQ, rng.randint(1, 5), rng.randint(1, 5))
        once, pivots = rref(m)
        twice, pivots2 = rref(once)
        assert once == twice
        assert pivots == pivots2


def test_nullspace_zero_matrix():
    ns = nullspace(Matrix.zeros(QQ, 2, 3))
    assert ns.dim == 3
    assert ns == Subspace.full(QQ, 3)


def test_nullspace_single_equation_canonical():
    ns = nullspace(Matrix(QQ, [[1, 2]]))
    assert ns.basis == ((Fraction(1), Fraction(-1, 2)),)


def test_nullspace_proportional_rows():
    ns = nullspace(Matrix(QQ, [[1, 1], [2, 2], [3, 3]]))
    assert ns.dim == 1
    assert ns.contains((1, -1))


def test_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        field = rng.choice([QQ, F5])
        m = _random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) + nullspace(m).dim == m.ncols


def test_nullspace_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(30):
        m = _random_matrix(rng, QQ, rng.randint(1, 5), rng.randint(1, 5))
        zero = tuple([QQ.zero] * m.nrows)
        for v in nullspace(m).basis:
            assert m * v == zero


def test_det_identity_and_antidiagonal():
    assert det(Matrix.identity(QQ, 4)) == 1
    anti = Matrix(QQ, [[1 if i + j == 3 else 0 for j in range(4)]
                       for i in range(4)])
    assert det(anti) == 1  # two row swaps, even permutation
    assert det(Matrix(QQ, [[1, 2], [2, 4]])) == 0


def test_det_multiplicative():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, QQ, n, n)
        b = _random_matrix(rng, QQ, n, n)
        assert det(a * b) == det(a) * det(b)


def test_det_detects_singular():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, QQ, n, n)
        assert (det(m) != 0) == (nullspace(m).dim == 0)


def test_solve_identity():
    eye = Matrix.identity(QQ, 3)
    assert solve(eye, (1, 2, 3)) == (1, 2, 3)


def test_solve_pivot_variable_convention():
    assert solve(Matrix(QQ, [[1, 1]]), [2]) == (2, 0)


def test_solve_inconsistent():
    assert solve(Matrix(QQ, [[1], [1]]), [1, 2]) is None


def test_solve_random_consistent():
    rng = random.Random(23)
    for _ in range(30):
        m = _random_matrix(rng, QQ, rng.randint(1, 5), rng.randint(1, 5))
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(m.ncols))
        b = m * x
        got = solve(m, b)
        assert got is not None
        assert m * got == b


def test_subspace_canonical_representation():
    """Two spans of one space give bit-identical objects."""
    rng = random.Random(29)
    for _ in range(20):
        dim = rng.randint(2, 6)
        vecs = [[rng.randint(-3, 3) for _ in range(dim)]
                for _ in range(rng.randint(1, 4))]
        s = Subspace(QQ, dim, vecs)
        # random invertible recombinations of the same spanning set
        mixed = []
        for _ in range(len(vecs) + 2):
            coeffs = [rng.randint(-2, 2) for _ in vecs]
            mixed.append([sum(c * v[i] for c, v in zip(coeffs, vecs))
                          for i in range(dim)])
        t = Subspace(QQ, dim, mixed)
        assert t.contains_subspace(t)
        if s.contains_subspace(t) and t.contains_subspace(s):
            assert s == t
            assert hash(s) == hash(t)


def test_subspace_reduce_and_contains():
    s = Subspace(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    assert s.contains((1, 1, 2))
    assert not s.contains((0, 0, 1))
    assert s.reduce((1, 1, 2)) == (0, 0, 0)
    # reduce is idempotent and a canonical coset representative
    r = s.reduce((5, -1, 0))
    assert s.reduce(r) == r
    assert s.contains(tuple(a - b for a, b in zip((5, -1, 0), r)))


def test_subspace_sum_intersection_dims():
    rng = random.Random(31)
    for _ in range(25):
        dim = rng.randint(2, 6)
        u = Subspace(QQ, dim, [[rng.randint(-3, 3) for _ in range(dim)]
                               for _ in range(rng.randint(0, 3))])
        v = Subspace(QQ, dim, [[rng.randint(-3, 3) for _ in range(dim)]
                               for _ in range(rng.randint(0, 3))])
        both = u.add(v)
        meet = u.intersect(v)
        assert both.dim + meet.dim == u.dim + v.dim
        assert u.contains_subspace(meet) and v.contains_subspace(meet)
        assert both.contains_subspace(u) and both.contains_subspace(v)


def test_subspace_coordinate():
    s = Subspace.coordinate(QQ, 4, [2, 0])
    assert s.pivot_columns() == (0, 2)
    assert s.dim == 2


def test_a_coordinate_of_the_zero_dimensional_space_is_named_as_such():
    with pytest.raises(ShapeError) as exc:
        Subspace.coordinate(QQ, 0, [0])
    assert str(exc.value) == "coordinate 0 of the zero-dimensional space"
    with pytest.raises(ShapeError, match="coordinate 4 out of range 0..3"):
        Subspace.coordinate(QQ, 4, [4])


def test_float_rank_cross_check():
    """numpy's floating rank agrees with the exact rank on int matrices."""
    numpy = pytest.importorskip("numpy")
    rng = random.Random(37)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        grid = [[rng.randint(-6, 6) for _ in range(ncols)]
                for _ in range(nrows)]
        exact = rank(Matrix(QQ, grid))
        approx = numpy.linalg.matrix_rank(numpy.array(grid, dtype=float))
        assert exact == approx


# -- sympy oracle ------------------------------------------------------------

ORACLE_FIELDS = (QQ, F5, PrimeField(7))


def _sympy_oracle(field):
    """Converters to sympy's DomainMatrix over ``field``, and back."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    if field == QQ:
        dom = sympy.QQ

        def to(x):
            return dom(x.numerator, x.denominator)

        def back(y):
            return Fraction(int(y.numerator), int(y.denominator))
    else:
        dom = sympy.GF(field.characteristic)

        def to(x):
            return dom(x.r)

        def back(y):
            return field(int(y))

    def dm(rows, ncols):
        return DomainMatrix([[to(x) for x in r] for r in rows],
                            (len(rows), ncols), dom)

    def ours(d):
        return [[back(y) for y in r] for r in d.to_list()]

    return dm, ours, back


def _sparse_matrix(rng, field, nrows, ncols, density):
    return Matrix(field, [[field(rng.randint(-5, 5)) if rng.random() < density
                           else field.zero for _ in range(ncols)]
                          for _ in range(nrows)])


def _oracle_matrices(rng, field):
    """Square, wide, tall, rank-deficient and duplicated-row matrices,
    each dense and sparse."""
    for density in (1.0, 0.3):
        yield _sparse_matrix(rng, field, 5, 5, density)
        yield _sparse_matrix(rng, field, 3, 6, density)
        yield _sparse_matrix(rng, field, 6, 3, density)
        yield (_sparse_matrix(rng, field, 5, 2, density)
               * _sparse_matrix(rng, field, 2, 5, density))
        rows = list(_sparse_matrix(rng, field, 3, 5, density).rows) * 2
        rng.shuffle(rows)
        yield Matrix(field, rows)
        # two blocks of rows on interleaved, disjoint column sets
        zeros = (field.zero,) * 3
        a, b = (_sparse_matrix(rng, field, 3, 3, density) for _ in range(2))
        yield Matrix(field, [sum(zip(r, zeros), ()) for r in a.rows]
                     + [sum(zip(zeros, r), ()) for r in b.rows])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_kernel_matches_sympy(field):
    dm, ours, back = _sympy_oracle(field)
    rng = random.Random(41 + field.characteristic)
    for _ in range(6):
        for m in _oracle_matrices(rng, field):
            want, want_pivots = dm(m.rows, m.ncols).rref()
            reduced, pivots = rref(m)
            assert pivots == list(want_pivots)
            assert reduced == Matrix(field, ours(want))
            assert rank(m) == len(want_pivots)
            assert nullspace(m) == Subspace(
                field, m.ncols, ours(dm(m.rows, m.ncols).nullspace()))
            if m.is_square():
                assert det(m) == back(dm(m.rows, m.ncols).det())
            x0 = [field(rng.randint(-3, 3)) for _ in range(m.ncols)]
            for b in (m * x0, [field(rng.randint(-3, 3)) for _ in range(m.nrows)]):
                aug = [list(r) + [v] for r, v in zip(m.rows, b)]
                red, piv = dm(aug, m.ncols + 1).rref()
                if m.ncols in piv:
                    assert solve(m, b) is None
                    continue
                x = [field.zero] * m.ncols
                for row, p in zip(ours(red), piv):
                    x[p] = row[-1]
                assert solve(m, b) == tuple(x)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_subspace_ignores_row_order_and_duplicates(field):
    dm, ours, _ = _sympy_oracle(field)
    rng = random.Random(43 + field.characteristic)
    for _ in range(6):
        for m in _oracle_matrices(rng, field):
            s = Subspace(field, m.ncols, m.rows)
            want, pivots = dm(m.rows, m.ncols).rref()
            assert s.basis == tuple(map(tuple, ours(want)[:len(pivots)]))
            vecs = list(m.rows) * 2
            rng.shuffle(vecs)
            t = Subspace(field, m.ncols, vecs)
            assert t == s and t.basis == s.basis and hash(t) == hash(s)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_det_flips_sign_under_row_swap(field):
    rng = random.Random(47 + field.characteristic)
    for _ in range(6):
        for m in _oracle_matrices(rng, field):
            if not m.is_square():
                continue
            i, j = rng.sample(range(m.nrows), 2)
            rows = list(m.rows)
            rows[i], rows[j] = rows[j], rows[i]
            assert det(Matrix(field, rows)) == -det(m)


# -- products ----------------------------------------------------------------

PRODUCT_FIELDS = (QQ, F5, F2)
PRODUCT_DENSITIES = (0.0, 0.1, 1.0)


def _naive_product(a_rows, b_rows, ncols, zero):
    """Dense triple loop: the reference for Matrix products."""
    out = []
    for r in a_rows:
        row = []
        for j in range(ncols):
            s = zero
            for k, x in enumerate(r):
                s = s + x * b_rows[k][j]
            row.append(s)
        out.append(row)
    return out


def _product_scalar(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return field(rng.randint(0, field.characteristic - 1))


def _product_matrix(rng, field, nrows, ncols, density):
    return Matrix(field, [[_product_scalar(rng, field) if rng.random() < density
                           else field.zero for _ in range(ncols)]
                          for _ in range(nrows)])


def _product_shapes(rng):
    """(m, k, p) for an m x k times k x p product: random, 1 x n . n x 1,
    n x 1 . 1 x n."""
    for _ in range(8):
        yield rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
    n = rng.randint(2, 9)
    yield 1, n, 1
    yield n, 1, n


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
def test_products_match_the_dense_triple_loop(field):
    rng = random.Random(53 + field.characteristic)
    zero = field.zero
    for density in PRODUCT_DENSITIES:
        for m, k, p in _product_shapes(rng):
            a = _product_matrix(rng, field, m, k, density)
            b = _product_matrix(rng, field, k, p, rng.choice(PRODUCT_DENSITIES))
            assert a * b == Matrix(field, _naive_product(a.rows, b.rows, p, zero))
            v = _product_matrix(rng, field, 1, k, density).rows[0]
            want = _naive_product(a.rows, [(x,) for x in v], 1, zero)
            assert a * v == tuple(r[0] for r in want)
            assert a * list(v) == a * v
            assert (a * Matrix.zeros(field, k, p)).is_zero()
            assert Matrix.zeros(field, p, m) * a == Matrix.zeros(field, p, k)


def test_products_match_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)

    def to_sympy(m):
        return sympy.Matrix(m.nrows, m.ncols,
                            [sympy.Rational(x.numerator, x.denominator)
                             for r in m.rows for x in r])

    def back(sm):
        return Matrix(QQ, [[Fraction(int(x.p), int(x.q)) for x in sm.row(i)]
                           for i in range(sm.rows)])

    for density in PRODUCT_DENSITIES:
        for m, k, p in _product_shapes(rng):
            a = _product_matrix(rng, QQ, m, k, density)
            b = _product_matrix(rng, QQ, k, p, density)
            assert a * b == back(to_sympy(a) * to_sympy(b))
            v = b.col(0)
            assert a * v == back(to_sympy(a) * to_sympy(Matrix(QQ, zip(v)))).col(0)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
def test_products_reject_shape_and_field_mismatches(field):
    a = Matrix.identity(field, 3)
    for bad in (Matrix.zeros(field, 2, 3), Matrix.zeros(field, 4, 1)):
        with pytest.raises(ShapeError):
            a * bad
    for bad in ([1, 0], [1, 0, 0, 0], []):
        with pytest.raises(ShapeError):
            a * bad
    other = F5 if field != F5 else QQ
    with pytest.raises(FieldMismatchError):
        a * Matrix.identity(other, 3)


@pytest.mark.parametrize("field", (QQ, F5), ids=str)
def test_restrict_matches_the_explicit_gram_matrix(field):
    rng = random.Random(61 + field.characteristic)
    d = 6
    for _ in range(5):
        half = _product_matrix(rng, field, d, d, rng.choice((0.3, 1.0)))
        m = half + half.transpose()
        form = BilinearForm(m)
        coordinate = Subspace.coordinate(field, d, rng.sample(range(d), 3))
        rotated = Subspace(field, d, [[_product_scalar(rng, field) for _ in range(d)]
                                      for _ in range(3)])
        assert any(sum(1 for x in u if x) > 1 for u in rotated.basis)
        for s in (coordinate, rotated):
            gram = [[sum((u[i] * m.rows[i][j] * w[j]
                          for i in range(d) for j in range(d)), field.zero)
                     for w in s.basis] for u in s.basis]
            assert form.restrict(s) == Matrix(field, gram)
            assert form._restricted(s).is_nondegenerate() == (
                det(Matrix(field, gram)) != field.zero)


def test_primality_is_exact_and_bounded_below_2_to_the_64():
    import time
    from liealg.fields import is_prime
    sieve = [n for n in range(2, 3000) if all(n % d for d in range(2, n))]
    assert [n for n in range(-2, 3000) if is_prime(n)] == sieve
    start = time.perf_counter()
    assert is_prime(10 ** 18 + 3) and is_prime(2 ** 61 - 1)
    assert PrimeField(10 ** 18 + 3).p == 10 ** 18 + 3
    assert time.perf_counter() - start < 1
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5 and 7
    for composite in (561, 3215031751):
        assert not is_prime(composite)
    with pytest.raises(ValueError, match="out of range"):
        PrimeField(2 ** 89 - 1)


# -- determinants of systems with an empty row ---------------------------------

def test_det_of_an_empty_row_is_zero_without_elimination(monkeypatch):
    from liealg import linalg
    calls = []
    insert = linalg._insert
    monkeypatch.setattr(linalg, "_insert", lambda *args: calls.append(args) or insert(*args))
    for field in (QQ, F5):
        rows = [{0: 2, 1: 1}, {}, {1: 3, 2: 1}]
        assert det(linalg._Rows(field, 3, rows)) == field.zero
        assert det(Matrix(field, [[1, 2, 0], [0, 0, 0], [4, 0, 1]])) == field.zero
    assert calls == []
    # a dependent nonempty row is found by elimination, as before
    assert det(linalg._Rows(QQ, 2, [{0: 1, 1: 2}, {0: 2, 1: 4}])) == QQ.zero
    assert len(calls) == 2


@pytest.mark.parametrize("field", (QQ, F5), ids=str)
def test_det_with_and_without_empty_rows_matches_sympy(field):
    from liealg import linalg
    dm, _, back = _sympy_oracle(field)
    rng = random.Random(59 + field.characteristic)
    empty = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        grid = [[_product_scalar(rng, field) if rng.random() < 0.6 else field.zero
                 for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:
            grid[rng.randrange(n)] = [field.zero] * n
        m = Matrix(field, grid)
        empty += not all(any(r) for r in grid)
        want = back(dm(m.rows, n).det())
        assert det(m) == want
        scale, rows = m._cleared()
        assert det(linalg._Rows(field, n, rows)) == want * scale ** n
    assert empty >= 5


def test_shape_errors_of_traces_solves_and_subspaces():
    with pytest.raises(ShapeError, match="trace"):
        Matrix(QQ, [[1, 2]]).trace()
    with pytest.raises(ShapeError, match="right-hand side"):
        solve(Matrix.identity(QQ, 2), [1, 2, 3])
    with pytest.raises(ShapeError, match="spanning vector"):
        Subspace(QQ, 3, [(1, 0)])
    s = Subspace(QQ, 3, [(1, 0, 0)])
    for probe in (s.reduce, s.contains):
        with pytest.raises(ShapeError, match="wrong length"):
            probe((1, 0))
    other = Subspace(QQ, 4, [(1, 0, 0, 0)])
    for combine in (s.contains_subspace, s.add, s.intersect):
        with pytest.raises(ShapeError, match="ambient dimension"):
            combine(other)


def test_fp_element_mixed_operands():
    three, five = PrimeField(3), F5
    a = five(2)
    assert 1 - a == five(4) and 1 / a == five(3)
    with pytest.raises(ZeroDivisionError):
        a / five(0)
    with pytest.raises(ZeroDivisionError):
        1 / five(0)
    with pytest.raises(FieldMismatchError):
        a + three(1)
    for op in (lambda: a + 1.5, lambda: 1.5 - a, lambda: a * 1.5, lambda: a / 1.5,
               lambda: 1.5 / a, lambda: a - 1.5):
        with pytest.raises(TypeError):
            op()
    assert five("3") == five(3)
    with pytest.raises(FieldMismatchError):
        five(three(1))
    with pytest.raises(TypeError):
        QQ(1.5)


def test_reprs_and_comparisons_with_other_types():
    assert repr(Matrix(QQ, [[1, 2], [3, 4]])) == "Matrix(Q, 2x2: 1 2; 3 4)"
    assert repr(Subspace(QQ, 2, [(1, 1)])) == "Subspace(dim 1 of 2: (1, 1))"
    assert Subspace.span(QQ, 2, [(1, 1)]) == Subspace(QQ, 2, [(1, 1)])
    assert repr(FpElement(5, 7)) == "2 (mod 5)"
    assert FpElement(5, 1).__eq__("1") is NotImplemented
    assert (FpElement(5, 1) == "1") is False
