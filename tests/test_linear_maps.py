"""Linear maps on the integer table against their dense scalar references.

``LieAlgebra.adjoint`` brackets x, cleared once, with each basis index in
integers; ``is_isomorphism`` compares combinations of phi's cleared
columns, over the source table, with integer brackets of the target
table, for the source's generating set only, and ``is_automorphism`` is
that check with the algebra as its own target; the family's metrics are
built as integer rows.  The references below are the dense scalar bodies
they replace: one ``bracket`` of scalar vectors per column, a ``Matrix``
times a bracket for every basis pair (of one table, and of two tables),
and a dense grid fed to ``Matrix`` and ``BilinearForm``.  The two must
agree exactly, also on tables in rotated bases, with fractional
constants, and on targets that fail Jacobi, and a guard counts that no
scalar ``Matrix`` arithmetic and no scalar bracket runs inside the
linear-map paths and the constructions.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from liealg.core import BilinearForm, LieAlgebra
from liealg.family import (DiagonalMetricResult, canonical_metric, hat_shift_automorphism,
                           single_diagonal_metric_solve, truncated_algebra)
from liealg.fields import FieldMismatchError, PrimeField, QQ
from liealg.hats import IDENTITY_HAT, MOD3_BALANCED, ZModHat
from liealg.linalg import Matrix, ShapeError, Subspace, det
from liealg.selfdual import (ContractionInput, DoubleExtensionInput, double_extend,
                             wigner_contract)
from test_construction_oracle import _dense_rebase, _unimodular
from test_sparse_oracle import JACOBI_FAILING

F5 = PrimeField(5)


# -- dense references ---------------------------------------------------------

def _dense_adjoint(alg, x):
    x = alg._coerce_vector(x)
    cols = [alg.bracket(x, alg.basis_vector(j)) for j in range(alg.dim)]
    return Matrix(alg.field, zip(*cols)) if cols else Matrix(alg.field, [])


def _dense_is_automorphism(alg, phi):
    if phi.field != alg.field:
        raise FieldMismatchError("map over a different field")
    if not (phi.is_square() and phi.nrows == alg.dim):
        raise ShapeError("map dimension mismatch")
    if det(phi) == alg.field.zero:
        return False
    cols = [phi.col(j) for j in range(alg.dim)]
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    return all(phi * alg.bracket(basis[i], basis[j]) == alg.bracket(cols[i], cols[j])
               for i in range(alg.dim) for j in range(i + 1, alg.dim))


def _dense_is_isomorphism(alg, other, phi):
    if phi.field != alg.field or other.field != alg.field:
        raise FieldMismatchError("map over a different field")
    if not (phi.is_square() and phi.nrows == alg.dim == other.dim):
        raise ShapeError("map dimension mismatch")
    if det(phi) == alg.field.zero:
        return False
    cols = [phi.col(j) for j in range(alg.dim)]
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    return all(phi * alg.bracket(basis[i], basis[j]) == other.bracket(cols[i], cols[j])
               for i in range(alg.dim) for j in range(i + 1, alg.dim))


def _grid_canonical_metric(n, b, field):
    zero, one = field.zero, field.one
    grid = [[one if i + j == n else zero for j in range(n + 1)] for i in range(n + 1)]
    grid[0][0] = grid[0][0] + field(b)
    return BilinearForm(Matrix(field, grid))


def _grid_diagonal_form(result, field):
    if not result.exists:
        raise ValueError("no single-diagonal invariant metric exists")
    n = result.n
    grid = [[result.weights[j] if i + j == n else field.zero for j in range(n + 1)]
            for i in range(n + 1)]
    return BilinearForm(Matrix(field, grid))


# -- tables and maps ------------------------------------------------------------

def _over(field, alg):
    """The table of integer constants ``alg`` read over ``field``."""
    return LieAlgebra(field, alg.dim, {key: [(k, int(c)) for k, c in terms]
                                       for key, terms in alg.sc.items()})


SO21 = LieAlgebra(QQ, 3, {(0, 1): [(2, 1)], (1, 2): [(0, -1)], (0, 2): [(1, -1)]})
HEISENBERG = LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]})
PLANE = LieAlgebra(QQ, 2, {(0, 1): [(1, 1)]})  # [R0, R1] = R1
W8 = truncated_algebra(8, hat=IDENTITY_HAT)

# each table with the charges c_i of its diagonal automorphisms x_i -> t^(c_i) x_i
# (so(2,1) has the sign flip of its boost generators instead)
TABLES = [(SO21, None), (HEISENBERG, (1, 1, 2)), (PLANE, (0, 1)), (W8, tuple(range(9))),
          (JACOBI_FAILING, None)]
TABLES = [(_over(field, alg), charges) for field in (QQ, F5) for alg, charges in TABLES]


def _exp_ad(alg, x):
    """sum_m (ad x)^m / m! when ad x is nilpotent with every such m! a
    unit of the field, else None."""
    field, ad = alg.field, alg.adjoint(x)
    total = power = Matrix.identity(field, alg.dim)
    for m in range(1, alg.dim + 1):
        power = power * ad
        if power.is_zero():
            return total
        if field.characteristic and m >= field.characteristic:
            return None
        total = total + power.scale(field.one / field(factorial(m)))
    return None


def _perturbed(rng, phi):
    i, j = rng.randrange(phi.nrows), rng.randrange(phi.ncols)
    rows = [list(r) for r in phi.rows]
    rows[i][j] = rows[i][j] + phi.field.one
    return Matrix(phi.field, rows)


def _maps(rng, alg, charges):
    d, field = alg.dim, alg.field
    one = field.one
    good = [Matrix.identity(field, d)]
    if charges is None:
        good.append(Matrix(field, [[(one if i == 0 else -one) if i == j else 0
                                    for j in range(d)] for i in range(d)]))
    else:
        for t in (2, 3, -1):
            good.append(Matrix(field, [[t ** charges[i] if i == j else 0
                                        for j in range(d)] for i in range(d)]))
    exps = [_exp_ad(alg, alg.basis_vector(k)) for k in range(d)]
    exps.append(_exp_ad(alg, [rng.randint(-1, 1) for _ in range(d)]))
    exps = [e for e in exps if e is not None]
    good += exps + [a * b for a in exps for b in exps if a is not b][:6]
    yield from good
    for phi in good:
        yield _perturbed(rng, phi)
    for _ in range(4):
        yield Matrix(field, [[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)])
        cols = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d - 1)]
        cols.append([sum(c[i] for c in cols) for i in range(d)] if cols else [0] * d)
        yield Matrix(field, zip(*cols))  # singular: the last column sums the others


def _family_maps(rng, field):
    for n in range(31):
        alg, shift = truncated_algebra(n, field=field), hat_shift_automorphism(n, field)
        if shift is not None:
            yield alg, shift
            yield alg, _perturbed(rng, shift)
            exp = _exp_ad(alg, alg.basis_vector(1)) if n <= 12 else None
            if exp is not None:
                yield alg, shift * exp


# -- tests ------------------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_is_automorphism_matches_the_all_pairs_check(field):
    rng = random.Random(53)
    cases = [(alg, phi) for alg, charges in TABLES if alg.field == field
             for phi in _maps(rng, alg, charges)]
    cases += list(_family_maps(rng, field))
    verdicts = []
    for alg, phi in cases:
        expected = _dense_is_automorphism(alg, phi)
        assert alg.is_automorphism(phi) == expected
        verdicts.append(expected)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 40
    assert _over(field, JACOBI_FAILING).check_jacobi() is not None


def test_is_automorphism_rejects_what_the_all_pairs_check_rejects():
    alg = truncated_algebra(3)
    for phi in (Matrix.identity(F5, 4), Matrix.identity(QQ, 3), Matrix(QQ, [[1] * 4] * 3)):
        with pytest.raises((FieldMismatchError, ShapeError)) as found:
            alg.is_automorphism(phi)
        with pytest.raises(found.type, match=str(found.value)):
            _dense_is_automorphism(alg, phi)


def _rotation(alg, seed):
    """alg in the basis of the columns of a seeded unimodular P, and P,
    which maps that table onto alg."""
    p = _unimodular(random.Random(seed), alg.field, alg.dim)
    return LieAlgebra(alg.field, alg.dim, _dense_rebase(alg, [p.col(a) for a in range(alg.dim)])), p


def _fractional(alg):
    """alg with every basis vector halved: its constants halve too."""
    return LieAlgebra(alg.field, alg.dim, {key: [(k, c / 2) for k, c in terms]
                                           for key, terms in alg.sc.items()})


def _isomorphism_cases(rng, field):
    for n in (3, 6, 8):
        alg = truncated_algebra(n, field=field)
        for seed in range(3):
            rotated, p = _rotation(alg, seed)
            singular = Matrix(field, [r[:-1] + (sum(r[:-1], field.zero),) for r in p.rows])
            yield from ((rotated, alg, p), (rotated, alg, _perturbed(rng, p)),
                        (rotated, alg, singular), (alg, rotated, p))
    so21 = _over(field, SO21)
    rotated, p = _rotation(so21, 7)
    yield rotated, so21, p
    if field == QQ:
        # the halved basis x_i / 2 of A3 maps onto the basis of A3: scales 2 and 1
        a3 = truncated_algebra(3)
        yield _fractional(a3), a3, Matrix.identity(QQ, 4).scale(Fraction(1, 2))
        yield a3, _fractional(a3), Matrix.identity(QQ, 4).scale(2)
        yield a3, _fractional(a3), Matrix.identity(QQ, 4)
    failing = _over(field, JACOBI_FAILING)
    rotated, p = _rotation(failing, 5)
    yield rotated, failing, p
    yield rotated, failing, _perturbed(rng, p)
    # only the bracket of two non-generators differs: the target fails
    # Jacobi, and the identity holds on the source's generating set
    a6 = truncated_algebra(6, field=field)
    bent = dict(a6.sc)
    bent[(4, 5)] = ((6, field.one),)
    bent = LieAlgebra(field, 7, bent)
    assert bent.check_jacobi() is not None and not {4, 5} & set(a6._generators())
    yield a6, bent, Matrix.identity(field, 7)


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_is_isomorphism_matches_the_two_table_all_pairs_check(field):
    rng = random.Random(67)
    verdicts = []
    for alg, other, phi in _isomorphism_cases(rng, field):
        expected = _dense_is_isomorphism(alg, other, phi)
        assert alg.is_isomorphism(other, phi) == expected
        verdicts.append(expected)
    assert verdicts.count(True) >= 10 and verdicts.count(False) >= 10


def test_is_isomorphism_rejects_what_is_automorphism_rejects():
    alg = truncated_algebra(3)
    cases = [(alg, Matrix.identity(F5, 4)),
             (truncated_algebra(3, field=F5), Matrix.identity(QQ, 4)),
             (alg, Matrix.identity(QQ, 3)), (truncated_algebra(4), Matrix.identity(QQ, 4)),
             (alg, Matrix(QQ, [[1] * 4] * 3))]
    for other, phi in cases:
        with pytest.raises((FieldMismatchError, ShapeError)) as found:
            alg.is_isomorphism(other, phi)
        assert str(found.value) in ("map over a different field", "map dimension mismatch")
        with pytest.raises(found.type, match=str(found.value)):
            _dense_is_isomorphism(alg, other, phi)
        if other is alg:
            with pytest.raises(found.type, match=str(found.value)):
                alg.is_automorphism(phi)


def test_adjoint_matches_the_bracket_per_column():
    rng = random.Random(59)
    for alg, _ in TABLES + [(truncated_algebra(12), None), (LieAlgebra(QQ, 0, {}), None)]:
        d = alg.dim
        vectors = [alg.basis_vector(k) for k in range(d)]
        vectors += [[rng.randint(-3, 3) for _ in range(d)] for _ in range(3)]
        if alg.field == QQ:
            vectors += [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)]]
        for x in vectors:
            ad = alg.adjoint(x)
            assert ad == _dense_adjoint(alg, x)
            assert (ad.nrows, ad.ncols) == (d, d)
    with pytest.raises(ShapeError):
        SO21.adjoint([1, 0])


def _outcome(build, *args):
    try:
        form = build(*args)
    except (ValueError, TypeError) as exc:
        return "error", type(exc), str(exc)
    return form._cleared(), form.matrix


def test_family_metrics_match_the_grid_built_forms():
    for field in (QQ, F5):
        for n in range(31):
            for b in (0, 1, Fraction(5, 3)):
                assert _outcome(canonical_metric, n, b, field) == \
                    _outcome(_grid_canonical_metric, n, b, field)
    # a diagonal metric is built over its weights' field
    for hat, field in ((MOD3_BALANCED, QQ), (ZModHat(3), PrimeField(3)), (ZModHat(5), F5)):
        for n in range(31):
            result = single_diagonal_metric_solve(n, hat)
            assert _outcome(result.form) == _outcome(_grid_diagonal_form, result, field)
    for weights in ((1, 2, 1), (3, 5, 3), (1, 2, 4), (0, 1, 0)):
        for field in (QQ, F5):
            result = DiagonalMetricResult(2, True, tuple(map(field, weights)))
            assert _outcome(result.form) == _outcome(_grid_diagonal_form, result, field)


def test_linear_map_paths_make_no_scalar_matrix_or_bracket_calls(monkeypatch):
    a6, a9, a12 = truncated_algebra(6), truncated_algebra(9), truncated_algebra(12)
    basis6 = [a6.basis_vector(i) for i in range(7)]
    self_action = DoubleExtensionInput(7, canonical_metric(6), a6,
                                       tuple(a6.adjoint(v) for v in basis6))
    shift = hat_shift_automorphism(12)
    along_t0 = ContractionInput(a9, canonical_metric(9, 1), Subspace.coordinate(QQ, 10, [0]))
    calls = []

    def counted(name, real):
        return lambda *args: calls.append(name) or real(*args)

    for name in ("__mul__", "__add__", "__sub__", "__neg__", "scale", "transpose"):
        monkeypatch.setattr(Matrix, name, counted(name, getattr(Matrix, name)))
    zeros = Matrix.zeros
    monkeypatch.setattr(Matrix, "zeros", classmethod(lambda cls, *args: calls.append("zeros")
                                                      or zeros(*args)))
    for name in ("bracket", "basis_vector", "structure_constant"):
        monkeypatch.setattr(LieAlgebra, name, counted(name, getattr(LieAlgebra, name)))
    ads = [a6.adjoint(v) for v in basis6]
    assert a12.is_automorphism(shift)
    double_extend(self_action)
    wigner_contract(along_t0)
    assert calls == []
    # the counters count
    assert ads[1] * ads[2] - ads[2].scale(2) == ads[1] * ads[2] + -ads[2].scale(2)
    a6.bracket(a6.basis_vector(1), basis6[2])
    assert sorted(set(calls)) == ["__add__", "__mul__", "__neg__", "__sub__", "basis_vector",
                                  "bracket", "scale"]
