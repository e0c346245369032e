"""The sparse equation assembly against dense references.

Each reference below builds its system the dense way, one full-width
row per equation in a ``Matrix`` and a ``Subspace.full`` answer for an
empty system, over every basis element rather than a generating set,
and the sparse solvers must return bit-identical results.  The corpus
holds a table that fails Jacobi, on which a generating set would give
other answers, so the solvers must fall back to the full basis there.
"""

import itertools
import random
from fractions import Fraction

import pytest

from liealg import core, selfdual
from liealg.core import BilinearForm, DerivationSpace, LieAlgebra, direct_sum
from liealg.family import (DiagonalMetricResult, _all_nonzero_element,
                           single_diagonal_metric_solve, suffix_subspace, truncated_algebra)
from liealg.fields import PrimeField, QQ
from liealg.hats import IDENTITY_HAT, MOD3_BALANCED
from liealg.io import scalar_to_string
from liealg.linalg import Matrix, Subspace, _equations, nullspace, solve
from liealg.selfdual import (_GRID_BUDGET, invariant_form_space, is_self_dual,
                             orthogonal_complement)

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)

# Fails Jacobi at (0, 1, 2).  Over the full basis it has one invariant
# form and lower central dims [4, 3]; over the generating set {x0, x1}
# it would have three forms and dims [4, 2].
JACOBI_FAILING = LieAlgebra(QQ, 4, {(0, 1): [(3, 1)], (0, 2): [(2, 1)], (1, 2): [(3, 2)],
                                    (1, 3): [(2, -1)], (2, 3): [(1, 2)]})


# -- dense references ---------------------------------------------------------

def _sym_index(dim):
    """The references' unknowns B_{ij}, i <= j, numbered lexicographically."""
    index = {}
    for i in range(dim):
        for j in range(i, dim):
            index[(i, j)] = len(index)
    return index


def _dense_invariant_form_space(alg):
    d = alg.dim
    index = _sym_index(d)
    nun = len(index)
    zero = alg.field.zero
    equations = set()
    for k in range(d):
        for i in range(d):
            for j in range(i, d):
                eq = {}
                for l, c in alg.bracket_basis(k, i):
                    a = index[(min(l, j), max(l, j))]
                    eq[a] = eq.get(a, zero) + c
                for l, c in alg.bracket_basis(k, j):
                    a = index[(min(i, l), max(i, l))]
                    eq[a] = eq.get(a, zero) + c
                equations.add(frozenset((a, c) for a, c in eq.items() if c))
    equations.discard(frozenset())
    rows = []
    for eq in equations:
        row = [zero] * nun
        for a, c in eq:
            row[a] = c
        rows.append(row)
    space = (nullspace(Matrix(alg.field, rows)) if rows
             else Subspace.full(alg.field, nun))
    forms = []
    for v in space.basis:
        grid = [[zero] * d for _ in range(d)]
        for (i, j), a in index.items():
            grid[i][j] = v[a]
            grid[j][i] = v[a]
        forms.append(BilinearForm(Matrix(alg.field, grid)))
    return forms


def _assembled_invariant_form_space(alg):
    """The sparse assembler the ad-module closure solve replaced: the
    equations c_{ki}^l B_{lj} + c_{kj}^l B_{il} = 0 for x_k in the
    generating set, over the d(d+1)/2 unknowns B_{ij}, i <= j, of
    ``_sym_index``, their canonical kernel unfolded into forms."""
    d = alg.dim
    index = _sym_index(d)

    table = alg._int_table()

    def rows():
        for k in alg._generators():
            adk = [table[k].get(j, ()) for j in range(d)]
            for i in range(d):
                for j in range(i, d):
                    if not adk[i] and not adk[j]:
                        continue
                    eq = {index[(min(l, j), max(l, j))]: c for l, c in adk[i]}
                    for l, c in adk[j]:
                        a = index[(min(i, l), max(i, l))]
                        eq[a] = eq[a] + c if a in eq else c
                    yield eq
    # through core's name, which test_generating_sets_and_work_counts records
    space = core.nullspace(_equations(alg.field, len(index), rows()))
    pairs = list(index)
    forms = []
    for q, v in space._echelon.items():
        rows = [{} for _ in range(d)]
        for a, x in v.items():
            i, j = pairs[a]
            rows[i][j] = rows[j][i] = x
        forms.append(BilinearForm._of_cleared(alg.field, v[q], rows))
    return forms


def _dense_center(alg):
    rows = [[alg.structure_constant(i, j, k) for i in range(alg.dim)]
            for j in range(alg.dim) for k in range(alg.dim)]
    if not rows:
        return Subspace.full(alg.field, alg.dim)
    return nullspace(Matrix(alg.field, rows))


def _dense_derivation_space(alg):
    d = alg.dim
    zero = alg.field.zero
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            eq = [[zero] * (d * d) for _ in range(d)]
            for l, c in alg.bracket_basis(i, j):
                for k in range(d):
                    eq[k][k * d + l] = eq[k][k * d + l] + c
            for r in range(d):
                for k, c in alg.bracket_basis(r, j):
                    eq[k][r * d + i] = eq[k][r * d + i] - c
                for k, c in alg.bracket_basis(i, r):
                    eq[k][r * d + j] = eq[k][r * d + j] - c
            rows.extend(eq)
    if not rows:
        space = Subspace.full(alg.field, d * d)
    else:
        space = nullspace(Matrix(alg.field, rows))
    inner = d - _dense_center(alg).dim
    return DerivationSpace(space, inner, space.dim - inner)


def _dense_single_diagonal(n, hat=MOD3_BALANCED):
    field = hat.default_field()
    zero, one = field.zero, field.one
    rows = set()
    for i in range(n + 1):
        if i < n - i:
            row = [zero] * (n + 1)
            row[i] = one
            row[n - i] = -one
            rows.add(tuple(row))
        for j in range(n + 1 - i):
            k = n - i - j
            a = field(hat.value(k - i))
            b = field(hat.value(k - j))
            if a == zero and b == zero:
                continue
            row = [zero] * (n + 1)
            row[j] = row[j] + a
            row[n - i] = row[n - i] + b
            if any(x != zero for x in row):
                rows.add(tuple(row))
    space = (nullspace(Matrix(field, rows)) if rows
             else Subspace.full(field, n + 1))
    weights = _all_nonzero_element(space, field)
    if weights is None:
        return DiagonalMetricResult(n, False, None)
    return DiagonalMetricResult(n, True, tuple(w / weights[0] for w in weights))


def _dense_common_radical(alg, forms):
    return nullspace(Matrix(alg.field, [row for f in forms for row in f.matrix.rows]))


def _dense_orthogonal_complement(alg, form, s):
    if s.is_zero():
        return Subspace.full(alg.field, alg.dim)
    return nullspace(Matrix(alg.field, [tuple(form.matrix * v) for v in s.basis]))


def _dense_bracket(alg, x, y):
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    out = [alg.field.zero] * alg.dim
    for i, xi in enumerate(x):
        if xi:
            for j, yj in ys:
                for k, c in alg.bracket_basis(i, j):
                    out[k] = out[k] + xi * yj * c
    return tuple(out)


def _dense_is_ideal(alg, s):
    return all(s.contains(_dense_bracket(alg, alg.basis_vector(i), v))
               for i in range(alg.dim) for v in s.basis)


def _dense_bracket_span(alg, s, t):
    return Subspace(alg.field, alg.dim,
                    [_dense_bracket(alg, u, v) for u in s.basis for v in t.basis])


def _dense_series(alg, lower):
    full = Subspace.full(alg.field, alg.dim)
    series = [full]
    while True:
        nxt = _dense_bracket_span(alg, full if lower else series[-1], series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


def _dense_intersect(u, v):
    if u.is_zero() or v.is_zero():
        return Subspace.zero(u.field, u.ambient_dim)
    k, l = u.dim, v.dim
    stacked = Matrix(u.field, [[u.basis[a][i] for a in range(k)]
                               + [-v.basis[b][i] for b in range(l)]
                               for i in range(u.ambient_dim)])
    combine = u.basis_matrix().transpose()
    return Subspace(u.field, u.ambient_dim, [combine * s[:k] for s in nullspace(stacked).basis])


# -- the corpus ---------------------------------------------------------------

def _rotation(field, d, seed):
    """P = L U, unit triangular with entries in {-1, 0, 1}: det P = 1."""
    rng = random.Random(seed)
    low = Matrix(field, [[1 if i == j else rng.choice((-1, 0, 1)) if i > j else 0
                          for j in range(d)] for i in range(d)])
    up = Matrix(field, [[1 if i == j else rng.choice((-1, 0, 1)) if i < j else 0
                         for j in range(d)] for i in range(d)])
    return low * up


def _rotated(alg, seed):
    """alg in the basis of the columns of ``_rotation(seed)``, so the
    table stays integral."""
    d, field = alg.dim, alg.field
    p = _rotation(field, d, seed)
    cols = [p.col(a) for a in range(d)]
    brackets = {(a, b): list(enumerate(solve(p, alg.bracket(cols[a], cols[b]))))
                for a in range(d) for b in range(a + 1, d)}
    return LieAlgebra(field, d, brackets)


def _corpus():
    for field in (QQ, F5):
        for n in range(16):
            yield f"A{n}/{field}", truncated_algebra(n, field=field)
    for field in (F2, F3):
        for n in range(3, 16, 3):
            yield f"A{n}/{field}", truncated_algebra(n, field=field)
    yield "W10", truncated_algebra(10, hat=IDENTITY_HAT)
    for d in range(5):
        yield f"abelian{d}", LieAlgebra(QQ, d, {})
    a3, a6 = truncated_algebra(3), truncated_algebra(6)
    yield "A3+A3", direct_sum(a3, a3)
    for m in range(8):
        yield f"A6/suffix{m}", a6.quotient(suffix_subspace(6, m))
    for seed in range(2):
        yield f"A6 rotated {seed}", _rotated(a6, seed)
    for n in (9, 12):
        yield f"A{n} rotated 0", _rotated(truncated_algebra(n), 0)
    yield "jacobi-failing", JACOBI_FAILING


CORPUS = list(_corpus())
IDS = [name for name, _ in CORPUS]
ALGEBRAS = [alg for _, alg in CORPUS]


def test_rotated_tables_are_dense_and_integral():
    alg = ALGEBRAS[IDS.index("A6 rotated 0")]
    assert alg.check_jacobi() is None
    assert len(alg.sc) > len(truncated_algebra(6).sc)
    assert all(c.denominator == 1 for terms in alg.sc.values() for _, c in terms)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_structure_solvers_match_the_dense_assembly(alg):
    forms = invariant_form_space(alg)
    assert forms == _dense_invariant_form_space(alg)
    assert alg.center() == _dense_center(alg)
    assert alg.derivation_space() == _dense_derivation_space(alg)
    assert alg.derived_series() == _dense_series(alg, lower=False)
    assert alg.lower_central_series() == _dense_series(alg, lower=True)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_common_radical_matches_the_dense_assembly(alg):
    forms = _dense_invariant_form_space(alg)
    q = min(alg.dim + 1, alg.field.characteristic or alg.dim + 1)
    # is_self_dual reads the radical only after the seeded search
    if not forms or any(f.is_nondegenerate() for f in forms) or q ** len(forms) <= _GRID_BUDGET:
        return
    radical = _dense_common_radical(alg, forms)
    verdict = is_self_dual(alg)
    kind = verdict.certificate and verdict.certificate["kind"]
    assert (kind == "common-radical") == (not radical.is_zero())
    if kind == "common-radical":
        assert verdict.certificate["witness"] == [scalar_to_string(x)
                                                  for x in radical.basis[0]]


def test_the_corpus_reaches_the_common_radical():
    kinds = [is_self_dual(alg).certificate for alg in ALGEBRAS]
    assert sum(1 for c in kinds if c and c["kind"] == "common-radical") >= 5


def _subspaces(alg, rng):
    d, field = alg.dim, alg.field
    yield Subspace.zero(field, d)
    yield Subspace.full(field, d)
    for m in range(d + 1):
        yield Subspace.coordinate(field, d, range(m, d))
    for k in sorted({1, 2, d // 2} & set(range(1, d))):
        yield Subspace(field, d, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)])


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_spans_and_complements_match_the_dense_assembly(alg):
    rng = random.Random(alg.dim)
    spaces = list(_subspaces(alg, rng))
    form = BilinearForm(Matrix(alg.field, [[int(i + j == alg.dim - 1) for j in range(alg.dim)]
                                           for i in range(alg.dim)]))
    for s in spaces:
        assert orthogonal_complement(alg, form, s) == _dense_orthogonal_complement(alg, form, s)
        assert alg.is_ideal(s) == _dense_is_ideal(alg, s)
    for s, t in zip(spaces, spaces[1:] + spaces[:1]):
        assert alg._derived_span(t) == _dense_bracket_span(alg, t, t)
        assert s.intersect(t) == _dense_intersect(s, t)
    for u, v in itertools.product(spaces[-1].basis if alg.dim > 1 else [], repeat=2):
        assert alg.bracket(u, v) == _dense_bracket(alg, u, v)


def _mixed_form(field, d):
    """A symmetric form with denominators 1 to 4 over Q, small integers
    over F_p."""
    p = field.characteristic
    return BilinearForm(Matrix(field, [[1 + i * j % 5 if p else
                                        Fraction(1 + i * j % 5, 1 + (i + j) % 4)
                                        for j in range(d)] for i in range(d)]))


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_restricted_gram_matches_the_dense_product(alg):
    # G = W M W^T from Matrix products, W the canonical basis of s as rows
    rng = random.Random(alg.dim)
    field, d = alg.field, alg.dim
    forms = [BilinearForm(Matrix(field, [[int(i + j == d - 1) for j in range(d)]
                                         for i in range(d)])), _mixed_form(field, d)]
    for s in _subspaces(alg, rng):
        for form in forms:
            gram = form._restricted(s)
            if s.is_zero():
                assert gram.dim == 0 and gram.matrix == Matrix(field, [])
                continue
            w = s.basis_matrix()
            assert gram.matrix == w * form.matrix * w.transpose()
            assert form.restrict(s) == gram.matrix


def test_single_diagonal_solve_matches_the_dense_assembly():
    for n in range(31):
        assert single_diagonal_metric_solve(n) == _dense_single_diagonal(n)


def test_generating_sets_and_work_counts(monkeypatch):
    for n in (30, 60, 90):
        assert truncated_algebra(n)._generators() == (0, 1, 2)
    assert JACOBI_FAILING._generators() == (0, 1, 2, 3)
    brackets = []
    real_bracket = LieAlgebra._bracket
    monkeypatch.setattr(LieAlgebra, "_bracket",
                        lambda self, x, y: brackets.append(1) or real_bracket(self, x, y))
    # a bracket-free basis vector joins without a closure bracket
    assert LieAlgebra(QQ, 40, {})._generators() == tuple(range(40))
    assert brackets == []
    systems = []
    real_nullspace = core.nullspace

    def recording(m):
        systems.append((m.nrows, m.ncols))
        return real_nullspace(m)
    monkeypatch.setattr(core, "nullspace", recording)
    monkeypatch.setattr(selfdual, "nullspace", recording)
    a30 = truncated_algebra(30)
    assert _assembled_invariant_form_space(a30) == invariant_form_space(a30)
    # the reference: the equations of x_0, x_1, x_2 for the 496 unknowns
    # B_ij, i <= j; the closure solve: the distinct equations of the
    # relations, for the 31 unknowns B(T0, T_j)
    assert systems == [(900, 496), (20, 31)]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_first_derived_step_is_the_span_of_the_stored_brackets(alg):
    # D1 comes from the stored table; [L, L] brackets every pair of basis rows
    full = Subspace.full(alg.field, alg.dim)
    assert alg.derived_series()[:2][-1] == alg._derived_span(full)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=IDS)
def test_lower_central_series_starts_from_the_stored_brackets(alg):
    # C1 = D1 = [L, L], and it equals [x_s, L] over the generating set S,
    # which is the whole basis for the table that fails Jacobi
    lower = alg.lower_central_series()
    assert lower[:2] == alg.derived_series()[:2]
    rows = Subspace.full(alg.field, alg.dim)._echelon.values()
    assert lower[:2][-1] == Subspace._span(alg.field, alg.dim, (
        alg._bracket({s: 1}, v) for s in alg._generators() for v in rows))
