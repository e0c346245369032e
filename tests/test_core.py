"""Brackets, Jacobi witnesses, series, quotients, derivations, gradings."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from liealg.core import (BilinearForm, JacobiWitness, LieAlgebra, NotAnIdealError, direct_sum,
                         form_block_sum)
from liealg.family import canonical_metric, skip_subspace, suffix_subspace, truncated_algebra
from liealg.fields import FieldMismatchError, PrimeField, QQ
from liealg.linalg import Matrix, ShapeError, Subspace, _scalars, det, solve
from liealg.selfdual import orthogonal_complement


def heisenberg():
    # [x, y] = z
    return LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]})


def so21():
    # [J0,K1]=K2, [K1,K2]=-J0, [K2,J0]=K1
    return LieAlgebra(QQ, 3, {(0, 1): [(2, 1)],
                              (1, 2): [(0, -1)],
                              (0, 2): [(1, -1)]})


def two_dim_nonabelian():
    # [R0, R1] = R1
    return LieAlgebra(QQ, 2, {(0, 1): [(1, 1)]})


def test_construction_validation():
    with pytest.raises(ValueError):
        LieAlgebra(QQ, 2, {(1, 0): [(0, 1)]})  # needs i < j
    with pytest.raises(ValueError):
        LieAlgebra(QQ, 2, {(0, 1): [(2, 1)]})  # target out of range
    with pytest.raises(ValueError):
        LieAlgebra(QQ, 2, {(0, 1): [(1, 1)]}, labels=("a",))
    # zero coefficients are dropped from storage
    alg = LieAlgebra(QQ, 2, {(0, 1): [(0, 0), (1, 0)]})
    assert alg.is_abelian()


def test_bracket_family_pins():
    a3 = truncated_algebra(3)
    t = a3.basis_vector
    assert a3.bracket(t(0), t(1)) == (0, -1, 0, 0)
    assert a3.bracket(t(1), t(1)) == (0, 0, 0, 0)
    assert a3.bracket(t(1), t(2)) == (0, 0, 0, -1)
    assert a3.bracket(t(1), t(0)) == (0, 1, 0, 0)


def test_bracket_bilinear():
    rng = random.Random(5)
    alg = truncated_algebra(5)
    for _ in range(20):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        z = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        a = Fraction(rng.randint(-3, 3))
        left = alg.bracket([a * xi + yi for xi, yi in zip(x, y)], z)
        split = tuple(a * u + v for u, v in
                      zip(alg.bracket(x, z), alg.bracket(y, z)))
        assert left == split
        assert alg.bracket(x, y) == tuple(-v for v in alg.bracket(y, x))


def test_antisymmetry_of_stored_tensor():
    for alg in (truncated_algebra(6), so21(), heisenberg()):
        d = alg.dim
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    assert alg.structure_constant(i, j, k) == \
                        -alg.structure_constant(j, i, k)


def test_scalar_table_is_read_only():
    # the view kept from __init__ and the one converted on first read
    for alg in (so21(), truncated_algebra(3)):
        before = dict(alg.sc)
        with pytest.raises(TypeError):
            alg.sc[(0, 1)] = ()
        with pytest.raises(TypeError):
            del alg.sc[(0, 1)]
        assert dict(alg.sc) == before and alg.bracket_basis(0, 1) == before[(0, 1)]


def test_check_jacobi_clean_cases():
    assert truncated_algebra(8).check_jacobi() is None
    assert so21().check_jacobi() is None
    assert heisenberg().check_jacobi() is None
    assert LieAlgebra(QQ, 4, {}).check_jacobi() is None


def test_check_jacobi_first_witness_is_lexicographic():
    # flip one coefficient of the 5-element member to break Jacobi
    base = truncated_algebra(4)
    brackets = {key: list(terms) for key, terms in base.sc.items()}
    brackets[(0, 1)] = [(1, 1)]  # was -1
    broken = LieAlgebra(QQ, 5, brackets)
    witness = broken.check_jacobi()
    assert witness is not None

    def defect(i, j, k):
        acc = [QQ.zero] * 5
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            w = broken.bracket(broken.basis_vector(a), broken.basis_vector(b))
            for m, v in enumerate(broken.bracket(w, broken.basis_vector(c))):
                acc[m] += v
        return tuple(acc)

    zero = tuple([QQ.zero] * 5)
    first = None
    for i in range(5):
        for j in range(i + 1, 5):
            for k in range(j + 1, 5):
                if defect(i, j, k) != zero and first is None:
                    first = (i, j, k)
    assert (witness.i, witness.j, witness.k) == first
    assert witness.defect == defect(*first)


def test_adjoint_pins():
    a3 = truncated_algebra(3)
    ad0 = a3.adjoint(a3.basis_vector(0))
    expected = Matrix(QQ, [[0, 0, 0, 0], [0, -1, 0, 0],
                           [0, 0, 1, 0], [0, 0, 0, 0]])
    assert ad0 == expected
    assert a3.adjoint(a3.basis_vector(3)).is_zero()
    assert a3.adjoint((0, 0, 0, 0)).is_zero()


def test_adjoint_is_bracket():
    rng = random.Random(41)
    alg = so21()
    for _ in range(10):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        assert alg.adjoint(x) * tuple(y) == alg.bracket(x, y)


def test_killing_form_values():
    k3 = truncated_algebra(3).killing_form()
    assert k3.entry(0, 0) == 2
    assert all(k3.entry(i, j) == 0 for i in range(4) for j in range(4)
               if (i, j) != (0, 0))
    k6 = truncated_algebra(6).killing_form()
    assert k6.entry(0, 0) == 4
    assert all(k6.entry(i, j) == 0 for i in range(7) for j in range(7)
               if (i, j) != (0, 0))
    assert LieAlgebra(QQ, 3, {}).killing_form().matrix.is_zero()


def test_killing_form_matches_trace_oracle():
    """Recompute K(x_i, x_j) = tr(ad_i ad_j) with dense matrix products."""
    for alg in (truncated_algebra(5), so21(), two_dim_nonabelian()):
        k = alg.killing_form()
        ads = [alg.adjoint(alg.basis_vector(i)) for i in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert k.entry(i, j) == (ads[i] * ads[j]).trace()


def test_killing_form_invariant_when_jacobi_holds():
    for alg in (truncated_algebra(6), so21(), heisenberg()):
        assert alg.check_jacobi() is None
        assert alg.killing_form().invariance_witness(alg) is None


def test_series_dims():
    a3 = truncated_algebra(3)
    assert [s.dim for s in a3.derived_series()] == [4, 3, 1, 0]
    assert a3.is_solvable()
    assert not a3.is_nilpotent()
    lower = a3.lower_central_series()
    assert lower[-1].dim > 0
    ab = LieAlgebra(QQ, 4, {})
    assert [s.dim for s in ab.derived_series()] == [4, 0]
    h = heisenberg()
    assert [s.dim for s in h.derived_series()] == [3, 1, 0]
    assert h.is_nilpotent()
    assert not so21().is_solvable()


def test_family_never_nilpotent():
    for n in range(1, 10):
        assert not truncated_algebra(n).is_nilpotent()
        assert truncated_algebra(n).is_solvable()


def test_center():
    a3 = truncated_algebra(3)
    assert a3.center() == Subspace.coordinate(QQ, 4, [3])
    a6 = truncated_algebra(6)
    assert a6.center() == Subspace.coordinate(QQ, 7, [6])
    ab = LieAlgebra(QQ, 3, {})
    assert ab.center().dim == 3
    assert so21().center().dim == 0


def test_is_ideal_and_subalgebra():
    a6 = truncated_algebra(6)
    for m in range(0, 8):
        assert a6.is_ideal(suffix_subspace(6, m))
    skip6 = Subspace.coordinate(QQ, 7, [4, 6])
    assert a6.is_ideal(skip6)
    assert not a6.is_ideal(Subspace.coordinate(QQ, 7, [5]))
    assert a6.is_subalgebra(Subspace.coordinate(QQ, 7, [0]))
    assert not so21().is_subalgebra(Subspace.coordinate(QQ, 3, [1, 2]))


def test_quotient_truncates_the_family():
    a10 = truncated_algebra(10)
    q = a10.quotient(suffix_subspace(10, 4))
    assert q.dim == 4
    assert q.sc == truncated_algebra(3).sc
    a6 = truncated_algebra(6)
    q2 = a6.quotient(suffix_subspace(6, 3))
    assert q2.sc == truncated_algebra(2).sc
    q3 = a6.quotient(Subspace.zero(QQ, 7))
    assert q3.sc == a6.sc


def test_quotient_respects_brackets():
    """pi[x, y] = [pi x, pi y] for the canonical projection."""
    rng = random.Random(43)
    alg = truncated_algebra(6)
    j = suffix_subspace(6, 4)
    q = alg.quotient(j)
    kept = [c for c in range(7) if c not in j.pivot_columns()]

    def project(v):
        red = j.reduce(v)
        return tuple(red[c] for c in kept)

    for _ in range(15):
        x = [Fraction(rng.randint(-2, 2)) for _ in range(7)]
        y = [Fraction(rng.randint(-2, 2)) for _ in range(7)]
        assert project(alg.bracket(x, y)) == q.bracket(project(x), project(y))


def test_quotient_brackets_only_the_pairs_of_kept_vectors(monkeypatch):
    """Beyond the ideal test, a quotient of dimension r brackets at most
    C(r, 2) pairs: the new basis's ideal rows are never bracketed."""
    calls = []
    bracket = LieAlgebra._bracket
    monkeypatch.setattr(LieAlgebra, "_bracket",
                        lambda self, x, y: calls.append(1) or bracket(self, x, y))
    for n, j in ((20, suffix_subspace(20, 1)), (20, suffix_subspace(20, 12)),
                 (20, skip_subspace(20, 3)), (8, Subspace.zero(QQ, 9))):
        alg = truncated_algebra(n)
        alg.is_ideal(j)  # the generating set is computed once per algebra
        calls.clear()
        alg.is_ideal(j)
        ideal = len(calls)
        calls.clear()
        r = alg.quotient(j).dim
        assert r == n + 1 - j.dim
        assert len(calls) - ideal <= r * (r - 1) // 2


def test_quotient_requires_ideal():
    a3 = truncated_algebra(3)
    with pytest.raises(NotAnIdealError):
        a3.quotient(Subspace.coordinate(QQ, 4, [0]))


def test_is_automorphism():
    a3 = truncated_algebra(3)
    assert a3.is_automorphism(Matrix.identity(QQ, 4))
    bad = Matrix(QQ, [[1, 0, 0, 0], [0, 2, 0, 0],
                      [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not a3.is_automorphism(bad)
    singular = Matrix.zeros(QQ, 4, 4)
    assert not a3.is_automorphism(singular)


def test_charge_scaling_is_automorphism():
    """T_i -> t^i T_i respects the grading, hence every bracket."""
    for n in (3, 6):
        alg = truncated_algebra(n)
        t = Fraction(5, 3)
        phi = Matrix(QQ, [[t ** i if i == j else 0 for j in range(n + 1)]
                          for i in range(n + 1)])
        assert alg.is_automorphism(phi)


def test_derivation_space_dims():
    a3 = truncated_algebra(3)
    dspace = a3.derivation_space()
    assert dspace.space.dim == 5
    assert dspace.inner_dim == 3
    assert dspace.outer_dim == 2
    ab = LieAlgebra(QQ, 3, {})
    dab = ab.derivation_space()
    assert dab.space.dim == 9 and dab.inner_dim == 0
    r2 = two_dim_nonabelian()
    assert r2.derivation_space().inner_dim == 2


def test_derivation_members_satisfy_leibniz():
    alg = truncated_algebra(3)
    for flat in alg.derivation_space().space.basis:
        dmat = Matrix(QQ, [flat[r * 4:(r + 1) * 4] for r in range(4)])
        for i in range(4):
            for j in range(4):
                xi, xj = alg.basis_vector(i), alg.basis_vector(j)
                lhs = dmat * alg.bracket(xi, xj)
                rhs = tuple(a + b for a, b in zip(
                    alg.bracket(dmat * xi, xj), alg.bracket(xi, dmat * xj)))
                assert lhs == rhs


def test_derivation_dim_against_float_rank():
    """Assemble the Leibniz system independently; compare numpy nullity."""
    numpy = pytest.importorskip("numpy")
    for alg in (truncated_algebra(3), truncated_algebra(4), so21()):
        d = alg.dim
        rows = []
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    # D[x_i,x_j]_k = sum_l c_{ij}^l D_{kl}
                    row = [0.0] * (d * d)
                    for l in range(d):
                        c = alg.structure_constant(i, j, l)
                        if c != 0:
                            row[k * d + l] += float(c)
                    # [Dx_i, x_j]_k = sum_r D_{ri} c_{rj}^k
                    for r in range(d):
                        c = alg.structure_constant(r, j, k)
                        if c != 0:
                            row[r * d + i] -= float(c)
                        c2 = alg.structure_constant(i, r, k)
                        if c2 != 0:
                            row[r * d + j] -= float(c2)
                    rows.append(row)
        system = numpy.array(rows)
        nullity = d * d - numpy.linalg.matrix_rank(system)
        assert alg.derivation_space().space.dim == nullity


def test_check_grading():
    for n in (3, 6):
        alg = truncated_algebra(n)
        assert alg.check_grading(list(range(n + 1)))
    a3 = truncated_algebra(3)
    # (0,1,1,2) is additive on every stored bracket of the 4-dim member
    assert a3.check_grading((0, 1, 1, 2))
    assert a3.grading_witness((0, 1, 1, 3)) == (1, 2, 3)
    assert LieAlgebra(QQ, 2, {}).check_grading((0, 0))


def test_direct_sum():
    a = so21()
    b = heisenberg()
    s = direct_sum(a, b)
    assert s.dim == 6
    assert s.check_jacobi() is None
    assert [x.dim for x in s.derived_series()] == [6, 4, 3]
    # blocks do not talk to each other
    left = s.bracket(s.basis_vector(0), s.basis_vector(4))
    assert left == tuple([QQ.zero] * 6)


def test_bilinear_form_invariance_witness_order():
    a3 = truncated_algebra(3)
    good = canonical_metric(3)
    assert good.invariance_witness(a3) is None
    broken = BilinearForm(Matrix.identity(QQ, 4))
    w = broken.invariance_witness(a3)
    assert w is not None
    k, i, j = w
    # the reported triple really violates Eq-style invariance
    xk, xi, xj = (a3.basis_vector(t) for t in (k, i, j))
    val = broken.value(a3.bracket(xk, xi), xj) + \
        broken.value(xi, a3.bracket(xk, xj))
    assert val != 0


def test_prime_field_algebra():
    f3 = PrimeField(3)
    alg = truncated_algebra(3, field=f3)
    assert alg.check_jacobi() is None
    assert alg.center().dim == 1
    # the top generator of the 5-element member is not central: w(-4) = -1
    assert truncated_algebra(4, field=f3).center().dim == 0
    assert truncated_algebra(4).center().dim == 0


def test_bilinear_form_value_checks_lengths():
    form = canonical_metric(3)
    assert form.value([1, 0, 0, 0], [0, 0, 0, 1]) == 1
    rng = random.Random(71)
    for field in (QQ, PrimeField(5)):
        g = canonical_metric(6, 2, field).matrix
        for _ in range(10):
            x, y = ([field(rng.randint(-3, 3)) for _ in range(7)] for _ in range(2))
            want = sum((x[i] * g.entry(i, j) * y[j]
                        for i in range(7) for j in range(7)), field.zero)
            assert BilinearForm(g).value(x, y) == want
    for x, y in (([1], [0, 0, 0, 1]), ([0, 0, 0, 0, 1], [0, 0, 0, 1]),
                 ([1, 0, 0, 0], [1]), ([1, 0, 0, 0], [0, 0, 0, 1, 1])):
        with pytest.raises(ShapeError):
            form.value(x, y)


# -- dense references for the sparse witness scans ---------------------------

def _dense_invariance_witness(form, alg):
    """Every (k, i, j) in order, every entry read: the reference scan."""
    zero = form.field.zero
    for k in range(alg.dim):
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                t = zero
                for l, c in alg.bracket_basis(k, i):
                    g = form.matrix.entry(l, j)
                    if g != zero:
                        t = t + c * g
                for l, c in alg.bracket_basis(k, j):
                    g = form.matrix.entry(i, l)
                    if g != zero:
                        t = t + c * g
                if t != zero:
                    return (k, i, j)
    return None


def _dense_check_jacobi(alg):
    zero = alg.field.zero
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, c1 in alg.bracket_basis(a, b):
                for m, c2 in alg.bracket_basis(l, c):
                    acc[m] = acc.get(m, zero) + c1 * c2
        if any(v != zero for v in acc.values()):
            defect = [zero] * alg.dim
            for m, v in acc.items():
                defect[m] = v
            return JacobiWitness(i, j, k, tuple(defect))
    return None


def _rotated_member(n, seed, field=QQ):
    """Member n with its canonical metric in the basis of the rows of p = L.L^T,
    L unit lower-triangular with small seeded integers; the table is dense."""
    alg, metric = truncated_algebra(n, field=field), canonical_metric(n, field=field)
    rng, d = random.Random(seed), n + 1
    low = Matrix(field, [[1 if i == j else rng.randint(-2, 2) if j < i else 0
                          for j in range(d)] for i in range(d)])
    p = low * low.transpose()
    cols = p.transpose()
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            coords = solve(cols, alg.bracket(p.row(i), p.row(j)))
            brackets[(i, j)] = [(k, c) for k, c in enumerate(coords) if c]
    return (LieAlgebra(field, d, brackets),
            BilinearForm(p * metric.matrix * p.transpose()))


def _multi_term_table(rng, field, d, width):
    """A seeded table on d basis vectors: most pairs bracket to ``width``
    terms with nonzero coefficients, which breaks Jacobi."""
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < 0.7:
                brackets[(i, j)] = [(k, _nonzero(rng, field))
                                    for k in rng.sample(range(d), width)]
    return LieAlgebra(field, d, brackets)


def _seeded_form(rng, field, d):
    """A seeded symmetric form with about half its entries zero."""
    upper = {(i, j): field(rng.choice([0, 0, 0, 1, -1, 2]))
             for i in range(d) for j in range(i, d)}
    return BilinearForm(Matrix(field, [[upper[min(i, j), max(i, j)] for j in range(d)]
                                       for i in range(d)]))


def _wide_table(rng, d):
    """A dense table over Q on d >= 4 basis vectors whose constants mix
    1 with integers near +-2^60, and a dense form of the same kind.

    Every bracket reaches every basis vector.  The brackets that meet
    x_0, x_1 or x_2 have constants near 2^60 with signs chosen so that
    each digit of the cyclic sum of (0, 1, 2) adds 3 (d - 3) products
    near 2^120 of one sign, more than half the Jacobi scan's digit bound
    3 d C^2; the other brackets and the form take 1, -1 or +-2^60-sized
    entries at random.  A packed digit width too narrow for such sums
    carries into the next digit.
    """
    def big(sign):
        return sign * (2 ** 60 + rng.randrange(2 ** 20))

    def mixed():
        return rng.choice([1, -1, big(1), big(-1)])

    signs = {(0, 1): 1, (1, 2): 1, (0, 2): -1}
    brackets = {}
    for a in range(d):
        for b in range(a + 1, d):
            sign = signs.get((a, b), -1)
            brackets[(a, b)] = [(k, big(sign) if a < 3 else mixed()) for k in range(d)]
    upper = {(i, j): mixed() for i in range(d) for j in range(i, d)}
    grid = [[upper[min(i, j), max(i, j)] for j in range(d)] for i in range(d)]
    return LieAlgebra(QQ, d, brackets), BilinearForm(Matrix(QQ, grid))


def _witness_cases():
    for n in range(13):
        for b in (0, 1):
            yield truncated_algebra(n), canonical_metric(n, b)
    yield _rotated_member(6, 3)
    yield _rotated_member(9, 11)
    yield _rotated_member(9, 13, PrimeField(2))
    rng = random.Random(83)
    for d in (7, 8, 9):
        yield _wide_table(rng, d)
    f5 = PrimeField(5)
    yield truncated_algebra(6, field=f5), canonical_metric(6, field=f5)
    rng = random.Random(71)
    for field in (PrimeField(2), PrimeField(3)):
        for n in (4, 6, 9):
            yield truncated_algebra(n, field=field), canonical_metric(n, 1, field)
        yield _rotated_member(5, 7, field)
    for field in (QQ, PrimeField(2), PrimeField(3)):
        for width in (1, 2, 5):
            yield _multi_term_table(rng, field, 7, width), _seeded_form(rng, field, 7)


def _nonzero(rng, field):
    return rng.choice([x for x in map(field, (-3, -2, -1, 1, 2, 3)) if x != field.zero])


def _perturb_form(rng, form):
    grid = [list(r) for r in form.matrix.rows]
    i, j = rng.randrange(form.dim), rng.randrange(form.dim)
    grid[i][j] = grid[j][i] = grid[i][j] + _nonzero(rng, form.field)
    return BilinearForm(Matrix(form.field, grid))


def _perturb_constant(rng, alg):
    table = {key: dict(terms) for key, terms in alg.sc.items()}
    i, j = sorted(rng.sample(range(alg.dim), 2))
    k = rng.randrange(alg.dim)
    terms = table.setdefault((i, j), {})
    terms[k] = terms.get(k, alg.field.zero) + _nonzero(rng, alg.field)
    return LieAlgebra(alg.field, alg.dim, table)


def test_witness_scans_match_the_dense_references():
    rng = random.Random(67)
    found_form = found_jacobi = 0
    for alg, form in _witness_cases():
        cases = [(alg, form)]
        if alg.dim > 1:
            cases += [(alg, _perturb_form(rng, form)) for _ in range(3)]
            cases += [(_perturb_constant(rng, alg), form) for _ in range(3)]
        for a, f in cases:
            witness = f.invariance_witness(a)
            assert witness == _dense_invariance_witness(f, a)
            jacobi = a.check_jacobi()
            assert jacobi == _dense_check_jacobi(a)
            found_form += witness is not None
            found_jacobi += jacobi is not None
    # the perturbations do break both identities, so first witnesses are compared
    assert found_form > 100 and found_jacobi > 40


def _trace_killing(alg):
    """K(x_i, x_j) = tr(ad_i ad_j) = sum over k, l of (ad_i)_kl (ad_j)_lk,
    read off the dense adjoint matrices."""
    d, zero = alg.dim, alg.field.zero
    ads = [alg.adjoint(alg.basis_vector(i)).rows for i in range(d)]
    nonzero = [[(k, l, x) for k, row in enumerate(a) for l, x in enumerate(row) if x]
               for a in ads]
    return [[sum((x * b[l][k] for k, l, x in terms), zero) for b in ads]
            for terms in nonzero]


def _kernel_int(x):
    """A residue over F_p, the integer x over Q."""
    if isinstance(x, Fraction):
        assert x.denominator == 1
        return x.numerator
    return x.r


def test_killing_rows_match_the_trace_oracle_on_the_witness_cases():
    """The integer rows of the Killing form are L^2 times the trace
    oracle's entries, zeros dropped, over the witness cases and their
    perturbed tables."""
    rng, seen = random.Random(79), set()
    for alg, _ in _witness_cases():
        if alg in seen:  # the members come once per metric
            continue
        seen.add(alg)
        cases = [alg]
        if alg.dim > 1:
            cases += [_perturb_constant(rng, alg) for _ in range(2)]
        for a in cases:
            l2 = a._scale ** 2
            want = [{j: _kernel_int(x * l2) for j, x in enumerate(row) if x}
                    for row in _trace_killing(a)]
            assert a.killing_form()._cleared() == (l2, want)


def test_witness_scans_pass_large_members():
    for n in (60, 90):
        alg, form = truncated_algebra(n), canonical_metric(n)
        assert form.invariance_witness(alg) is None
        assert alg.check_jacobi() is None
    # the dense references take about 2 s at n = 90, so they run at n = 60
    alg, form = truncated_algebra(60), canonical_metric(60)
    assert _dense_invariance_witness(form, alg) is None
    assert _dense_check_jacobi(alg) is None


def test_scans_of_a_bracket_free_algebra_are_bounded():
    """The scans visit nonzero bracket paths only: a 3000-dimensional
    bracket-free algebra has none, against C(3000, 3) = 4.5e9 triples."""
    d = 3000
    alg = LieAlgebra(QQ, d, {})
    identity = BilinearForm._of_cleared(QQ, 1, [{i: 1} for i in range(d)])
    start = time.perf_counter()
    assert alg.check_jacobi() is None
    assert identity.invariance_witness(alg) is None
    assert alg.killing_form()._cleared() == (1, [{}] * d)
    # about 0.05 s on a two-core Xeon virtual machine; the bound is generous
    assert time.perf_counter() - start < 10


def test_repeated_bracket_targets_are_summed(tmp_path):
    from liealg.io import load_algebra, save_algebra
    doubled = LieAlgebra(QQ, 3, {(0, 1): [(2, 1), (2, 1)]})
    assert doubled.sc == {(0, 1): ((2, QQ(2)),)}
    e = doubled.basis_vector
    assert doubled.structure_constant(0, 1, 2) == doubled.bracket(e(0), e(1))[2] == 2
    assert doubled == LieAlgebra(QQ, 3, {(0, 1): [(2, 2)]})
    save_algebra(tmp_path / "doubled.json", doubled)
    assert load_algebra(tmp_path / "doubled.json") == (doubled, None)
    assert LieAlgebra(QQ, 3, {(0, 1): [(2, 1), (2, -1)]}).is_abelian()


# -- integer scans on non-integral tables -------------------------------------

def _dense_killing_form(alg):
    """K_ij = sum over k, l of c_ik^l c_jl^k, every constant read as a scalar."""
    d, zero = alg.dim, alg.field.zero
    sc = [[[alg.structure_constant(i, k, l) for l in range(d)] for k in range(d)]
          for i in range(d)]
    return Matrix(alg.field, [[sum((sc[i][k][l] * sc[j][l][k] for k in range(d)
                                    for l in range(d)), zero)
                               for j in range(d)] for i in range(d)])


def _scaled(alg, c):
    return LieAlgebra(alg.field, alg.dim, {key: [(k, x * c) for k, x in terms]
                                           for key, terms in alg.sc.items()})


def _fractional_perturbation(rng, alg, c):
    table = {key: dict(terms) for key, terms in alg.sc.items()}
    i, j = sorted(rng.sample(range(alg.dim), 2))
    k = rng.randrange(alg.dim)
    terms = table.setdefault((i, j), {})
    terms[k] = terms.get(k, alg.field.zero) + c
    return LieAlgebra(alg.field, alg.dim, table)


def _mixed_denominator_form(rng, form):
    """The form scaled by 5/3, plus a symmetric entry over 7 and one over 4."""
    field = form.field
    grid = [[x * field(5) / field(3) for x in r] for r in form.matrix.rows]
    for den in (7, 4):
        i, j = rng.randrange(form.dim), rng.randrange(form.dim)
        grid[i][j] = grid[j][i] = grid[i][j] + field(rng.choice([-2, -1, 1, 2])) / field(den)
    return BilinearForm(Matrix(field, grid))


def _non_integral_cases(rng):
    third, seven_tenths = Fraction(1, 3), Fraction(7, 10)
    for n in (3, 6, 9, 12):
        yield _scaled(truncated_algebra(n), seven_tenths), canonical_metric(n, n % 2)
    rotated, form = _rotated_member(6, 5)
    yield rotated, form
    for _ in range(3):
        yield _fractional_perturbation(rng, rotated, third), form
    for p in (2, 3, 5):
        field = PrimeField(p)
        a6 = truncated_algebra(6, field=field)
        yield a6, canonical_metric(6, field=field)
        yield (_fractional_perturbation(rng, a6, field(1) / field(2 if p == 3 else 3)),
               canonical_metric(6, 1, field))
    for width in (2, 5):
        table = _scaled(_multi_term_table(rng, QQ, 6, width), seven_tenths)
        yield _fractional_perturbation(rng, table, third), _seeded_form(rng, QQ, 6)


def test_integer_scans_match_the_scalar_references_on_non_integral_tables():
    rng = random.Random(73)
    found_form = found_jacobi = 0
    for alg, form in _non_integral_cases(rng):
        assert alg.killing_form().matrix == _dense_killing_form(alg)
        jacobi = alg.check_jacobi()
        assert jacobi == _dense_check_jacobi(alg)
        found_jacobi += jacobi is not None
        # 3, 4 and 7 are not all invertible over F_2 and F_3
        vary = _perturb_form if form.field.characteristic in (2, 3) else _mixed_denominator_form
        for f in [form] + [vary(rng, form) for _ in range(4)]:
            witness = f.invariance_witness(alg)
            assert witness == _dense_invariance_witness(f, alg)
            found_form += witness is not None
    # the perturbations break both identities, so first witnesses are compared
    assert found_form > 20 and found_jacobi >= 3


# -- forms held as integer rows -----------------------------------------------

def _scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 12)))
    return field(rng.randrange(field.characteristic))


def _symmetry_cases(rng):
    for field in (QQ, PrimeField(2), PrimeField(5)):
        yield Matrix(field, [])
        yield Matrix(field, [[], []])
        for _ in range(25):
            n = rng.randint(1, 6)
            upper = [[_scalar(rng, field) for _ in range(n)] for _ in range(n)]
            grid = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
            yield Matrix(field, grid)
            i, j = rng.randrange(n), rng.randrange(n)
            grid[i][j] = grid[i][j] + _nonzero(rng, field)
            yield Matrix(field, grid)
            yield Matrix(field, [row[:-1] for row in grid])
            yield Matrix(field, grid[:-1])


def test_a_non_square_form_matrix_is_named_by_its_shape():
    with pytest.raises(ValueError, match="bilinear form matrix is 1x2, not square"):
        BilinearForm(Matrix(QQ, [[1, 2]]))


def test_forms_accept_exactly_the_symmetric_matrices():
    """The symmetry check runs on the cleared integer rows: it agrees with
    Matrix.is_symmetric on mixed denominators, F_2, F_5, one-entry
    perturbations, non-square shapes and the 0x0 matrix."""
    accepted = rejected = 0
    for m in _symmetry_cases(random.Random(79)):
        if m.is_symmetric():
            form = BilinearForm(m)
            assert form.matrix == m and form.dim == m.nrows
            assert form == BilinearForm._of_cleared(m.field, *form._cleared())
            accepted += 1
        else:
            with pytest.raises(ValueError) as exc:
                BilinearForm(m)
            assert str(exc.value) == (
                "bilinear form matrix must be symmetric" if m.is_square()
                else f"bilinear form matrix is {m.nrows}x{m.ncols}, not square")
            rejected += 1
    assert accepted > 60 and rejected > 150


def _dense_int_table(alg):
    """table[i][j] = L [x_i, x_j] as (k, int) pairs for every i, j."""
    table = [[()] * alg.dim for _ in range(alg.dim)]
    for (i, j), terms in alg._isc.items():
        table[i][j] = terms
        table[j][i] = tuple((k, -c) for k, c in terms)
    return table


def _grid_killing_form(alg):
    """The scalar-grid Killing form: integer sums, each divided by L^2 into
    a grid of scalars, then a form built from that matrix."""
    conv = _scalars(alg.field, alg._scale ** 2)
    ad = _dense_int_table(alg)
    grid = [[None] * alg.dim for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            t = 0
            for l in range(alg.dim):
                for k, c2 in ad[j][l]:
                    for m, c1 in ad[i][k]:
                        if m == l:
                            t += c1 * c2
            grid[i][j] = grid[j][i] = conv(t)
    return BilinearForm(Matrix(alg.field, grid))


def _grid_form_block_sum(b1, b2):
    n1, n2 = b1.dim, b2.dim
    grid = [[b1.field.zero] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            grid[i][j] = b1.entry(i, j)
    for i in range(n2):
        for j in range(n2):
            grid[n1 + i][n1 + j] = b2.entry(i, j)
    return BilinearForm(Matrix(b1.field, grid))


def _same_form(form, reference):
    assert form == reference and form.matrix == reference.matrix
    assert form.is_nondegenerate() == (det(reference.matrix) != form.field.zero)


def test_integer_row_forms_match_the_scalar_grid_references():
    rng = random.Random(89)
    cases = [(truncated_algebra(n), canonical_metric(n, b)) for n in range(13) for b in (0, 1)]
    cases.append(_rotated_member(6, 3))
    f5 = PrimeField(5)
    cases.append((truncated_algebra(6, field=f5), canonical_metric(6, 1, f5)))
    degenerate = 0
    for (alg, form), (_, other) in zip(cases, cases[1:] + cases[:1]):
        _same_form(alg.killing_form(), _grid_killing_form(alg))
        degenerate += not alg.killing_form().is_nondegenerate()
        if other.field != form.field:
            other = form
        for b1, b2 in ((form, other), (_mixed_denominator_form(rng, form), other),
                       (other, BilinearForm.zero(form.field, 2)),
                       (BilinearForm.zero(form.field, 0), form)):
            _same_form(form_block_sum(b1, b2), _grid_form_block_sum(b1, b2))
    assert degenerate > 20


def test_form_determinant_matches_the_matrix_determinant():
    f5 = PrimeField(5)
    cases = [
        (canonical_metric(6, Fraction(1, 2)), Fraction(-1)),
        (BilinearForm.from_entries(f5, [[1, 2], [2, 3]]), f5(4)),
        (BilinearForm.from_entries(QQ, [["1", "1"], ["1", "1"]]), QQ(0)),
        (BilinearForm.zero(QQ, 0), QQ(1)),
    ]
    for form, expected in cases:
        assert form.det() == det(form.matrix) == expected
    # a form read from integer rows, before its matrix is ever built
    assert BilinearForm._of_cleared(QQ, 2, [{0: 1}, {1: 3}]).det() == Fraction(3, 4)


def test_input_checks_raise():
    f5 = PrimeField(5)
    alg = heisenberg()
    with pytest.raises(ValueError, match="grading length mismatch"):
        LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]}, grading=(1, 1))
    with pytest.raises(ShapeError, match="degrees length mismatch"):
        alg.grading_witness([1, 1])
    for check in (alg.is_ideal, alg.is_subalgebra):
        with pytest.raises(ShapeError, match="ambient dimension mismatch"):
            check(Subspace.full(QQ, 2))
        with pytest.raises(FieldMismatchError, match="different field"):
            check(Subspace.full(f5, 3))
    form = BilinearForm(Matrix.identity(QQ, 3))
    with pytest.raises(ShapeError, match="form/subspace dimension mismatch"):
        form.restrict(Subspace.full(QQ, 2))
    with pytest.raises(ShapeError, match="form/algebra dimension mismatch"):
        form.invariance_witness(two_dim_nonabelian())
    with pytest.raises(ShapeError, match="dimension mismatch"):
        orthogonal_complement(alg, BilinearForm(Matrix.identity(QQ, 2)), Subspace.full(QQ, 3))
    with pytest.raises(ShapeError, match="dimension mismatch"):
        orthogonal_complement(alg, form, Subspace.full(QQ, 2))


def test_sums_across_fields_raise():
    f5 = PrimeField(5)
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        direct_sum(heisenberg(), LieAlgebra(f5, 1, {}))
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        form_block_sum(BilinearForm.zero(QQ, 1), BilinearForm.zero(f5, 1))


@pytest.mark.parametrize("field", (QQ, PrimeField(5)), ids=str)
def test_forms_from_cleared_rows_keep_empty_rows(field):
    rows = [{0: 2, 2: 5}, {}, {0: 5, 2: 0}]
    form = BilinearForm._of_cleared(field, 1, rows)
    scale, held = form._cleared()
    if field.characteristic:
        assert held == [{0: 2}, {}, {}]
    else:
        assert held == [{0: 2, 2: 5}, {}, {0: 5}]
    assert held[1] == {} and not form.is_nondegenerate()
    assert form == BilinearForm(form.matrix)


def test_reprs_of_algebras_and_forms():
    assert repr(truncated_algebra(3)) == "LieAlgebra(dim 4 over Q, 3 stored brackets)"
    assert repr(canonical_metric(3)) == (
        "BilinearForm(Matrix(Q, 4x4: 0 0 0 1; 0 0 1 0; 0 1 0 0; 1 0 0 0))")
