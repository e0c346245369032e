"""Invariant forms, metric search, decomposability, and the two constructions."""

import itertools
import random
import time

import pytest

from liealg import selfdual
from liealg.core import BilinearForm, JacobiWitness, LieAlgebra, direct_sum, form_block_sum
from liealg.family import (
    canonical_metric,
    classify_ideals,
    enumerate_coordinate_ideals,
    suffix_subspace,
    truncated_algebra,
)
from liealg.fields import QQ, FieldMismatchError, PrimeField
from liealg.hats import IDENTITY_HAT
from liealg.io import string_to_scalar
from liealg.linalg import Matrix, Subspace, det, solve
from liealg.selfdual import (
    ConstructionError,
    ContractionInput,
    Decomposition,
    DeeperVerdict,
    DoubleExtensionInput,
    Verdict,
    decomposability_check,
    deeper_verdict,
    derived_suffix_check,
    double_extend,
    double_extension_candidates,
    invariant_form_space,
    invariant_profile,
    is_self_dual,
    nondegenerate_invariant_metric,
    orthogonal_complement,
    wigner_contract,
)


def _two_dim_nonabelian():
    return LieAlgebra(QQ, 2, {(0, 1): [(1, 1)]})


def _heisenberg():
    return LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]})


def _so21():
    return LieAlgebra(QQ, 3, {(0, 1): [(2, 1)],
                              (1, 2): [(0, -1)],
                              (0, 2): [(1, -1)]})


def _antidiag(d):
    return BilinearForm.from_entries(
        QQ, [[1 if i + j == d - 1 else 0 for j in range(d)] for i in range(d)])


def _identity_form(d):
    return BilinearForm(Matrix.identity(QQ, d))


def _flatten(form):
    return tuple(form.entry(i, j)
                 for i in range(form.dim) for j in range(form.dim))


def _span_of_brackets(alg, s1, s2):
    vecs = [alg.bracket(u, v) for u in s1.basis for v in s2.basis]
    return Subspace(alg.field, alg.dim, vecs)


def test_form_space_abelian():
    for d in (1, 2, 3, 4):
        forms = invariant_form_space(LieAlgebra(QQ, d, {}))
        assert len(forms) == d * (d + 1) // 2


def test_form_space_family_member():
    a3 = truncated_algebra(3)
    forms = invariant_form_space(a3)
    assert len(forms) == 2
    span = Subspace(QQ, 16, [_flatten(f) for f in forms])
    assert span.contains(_flatten(_antidiag(4)))
    e00 = BilinearForm.from_entries(
        QQ, [[1 if i == j == 0 else 0 for j in range(4)] for i in range(4)])
    assert span.contains(_flatten(e00))


def test_form_space_simple_algebra_is_killing_line():
    so21 = _so21()
    forms = invariant_form_space(so21)
    assert len(forms) == 1
    span = Subspace(QQ, 9, [_flatten(forms[0])])
    assert span.contains(_flatten(so21.killing_form()))


def test_form_space_members_are_invariant():
    """Re-verify the defining identity directly, not through the solver."""
    for alg in (truncated_algebra(4), _heisenberg(), _so21()):
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        for form in invariant_form_space(alg):
            for x in basis:
                for y in basis:
                    for z in basis:
                        assert form.value(alg.bracket(x, y), z) == \
                            -form.value(y, alg.bracket(x, z))


def test_canonical_metric_lies_in_form_space():
    for n in (3, 6, 9, 12):
        span = Subspace(QQ, (n + 1) ** 2,
                        [_flatten(f)
                         for f in invariant_form_space(truncated_algebra(n))])
        for b in (0, 1, 5, QQ(-2, 3)):
            assert span.contains(_flatten(canonical_metric(n, b)))


def test_form_space_golden_dimensions():
    """Besides E00 and the anti-diagonal, each member carries shifted
    anti-diagonal pairings supported on i + j = n - 3t."""
    for n in (3, 6, 9, 12):
        assert len(invariant_form_space(truncated_algebra(n))) == n // 3 + 1


def test_metric_search_family_member():
    a6 = truncated_algebra(6)
    metric = nondegenerate_invariant_metric(a6)
    assert metric is not None
    assert metric.is_nondegenerate()
    assert metric.invariance_witness(a6) is None
    assert metric.matrix == canonical_metric(6, 0).matrix


def test_metric_search_small_cases():
    assert nondegenerate_invariant_metric(_two_dim_nonabelian()) is None
    assert nondegenerate_invariant_metric(_heisenberg()) is None
    found = nondegenerate_invariant_metric(LieAlgebra(QQ, 2, {}))
    assert found is not None
    # the first non-degenerate basis element of the symmetric-form
    # space, in lexicographic unknown order, is the off-diagonal pairing
    assert found.matrix == Matrix(QQ, [[0, 1], [1, 0]])


def test_is_self_dual_yes():
    for alg in (truncated_algebra(9), _so21(), LieAlgebra(QQ, 3, {})):
        answer = is_self_dual(alg)
        assert answer.verdict == "yes"
        assert answer.metric.is_nondegenerate()
        assert answer.metric.invariance_witness(alg) is None


def test_is_self_dual_no_two_dim():
    answer = is_self_dual(_two_dim_nonabelian())
    assert answer.verdict == "no"
    assert answer.metric is None
    cert = answer.certificate
    assert cert["kind"] == "generic-determinant-zero"
    assert cert["space_dim"] == 1
    assert cert["matrix_dim"] == 2
    assert cert["grid_points"] == 3


def test_is_self_dual_no_family_member_off_lattice():
    answer = is_self_dual(truncated_algebra(4))
    assert answer.verdict == "no"
    assert answer.certificate == {"kind": "generic-determinant-zero",
                                  "space_dim": 2,
                                  "matrix_dim": 5,
                                  "grid_points": 36}


def test_is_self_dual_no_heisenberg():
    assert is_self_dual(_heisenberg()).verdict == "no"


def test_is_self_dual_unknown_when_certificate_out_of_reach(monkeypatch):
    """A3 + A3: all five basis forms are degenerate, the grid has 9^5
    points and the forms share no radical, so only the search is left."""
    a3 = truncated_algebra(3)
    both = direct_sum(a3, a3)
    forms = invariant_form_space(both)
    assert len(forms) == 5 and not any(f.is_nondegenerate() for f in forms)
    monkeypatch.setattr(selfdual, "_SEARCH_BUDGET", 0)
    answer = is_self_dual(both)
    assert answer.verdict == "unknown"
    assert answer.metric is None and answer.certificate is None
    assert isinstance(answer.reason, str) and answer.reason


def _check_no_certificate(alg, monkeypatch):
    """is_self_dual says 'no' with a certificate that checks out against
    the forms it was computed from."""
    seen = []
    monkeypatch.setattr(selfdual, "invariant_form_space",
                        lambda a: seen.append(invariant_form_space(a)) or seen[-1])
    answer = is_self_dual(alg)
    assert answer.verdict == "no" and answer.metric is None
    assert answer.reason is None
    cert = answer.certificate
    assert cert["space_dim"] == len(seen[0]) >= 1
    assert cert["matrix_dim"] == alg.dim
    if cert["kind"] == "common-radical":
        x = [string_to_scalar(QQ, c) for c in cert["witness"]]
        assert any(x)
        for form in seen[0]:
            assert not any(form.matrix * x)
    else:
        assert cert["kind"] == "generic-determinant-zero"
        assert cert["grid_points"] == (alg.dim + 1) ** len(seen[0]) <= 64
    return cert["kind"]


def test_is_self_dual_no_for_every_nonmetric_member(monkeypatch):
    kinds = {n: _check_no_certificate(truncated_algebra(n), monkeypatch)
             for n in [*range(1, 21), 29] if n % 3}
    assert {n for n, k in kinds.items() if k == "common-radical"} == \
        {n for n in kinds if n >= 7}


def _rotated(alg, p):
    """The algebra in the basis formed by the rows of the invertible p."""
    rows = [p.row(i) for i in range(alg.dim)]
    columns = p.transpose()
    brackets = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            coords = solve(columns, alg.bracket(rows[i], rows[j]))
            terms = [(k, c) for k, c in enumerate(coords) if c]
            if terms:
                brackets[(i, j)] = terms
    return LieAlgebra(alg.field, alg.dim, brackets)


def test_is_self_dual_no_does_not_depend_on_the_basis(monkeypatch):
    a7 = truncated_algebra(7)
    for seed in (1, 2):
        rng = random.Random(seed)
        d = a7.dim
        lower = Matrix(QQ, [[1 if i == j else rng.randint(-2, 2) if j < i else 0
                             for j in range(d)] for i in range(d)])
        rotated = _rotated(a7, lower * lower.transpose())
        assert rotated != a7 and rotated.check_jacobi() is None
        assert _check_no_certificate(rotated, monkeypatch) == "common-radical"


def test_is_self_dual_no_witt_algebra_by_grid():
    w10 = truncated_algebra(10, IDENTITY_HAT)
    assert is_self_dual(w10).certificate == {
        "kind": "generic-determinant-zero", "space_dim": 1,
        "matrix_dim": 11, "grid_points": 12}


def test_is_self_dual_direct_sum_metric_from_search():
    a3 = truncated_algebra(3)
    both = direct_sum(a3, a3)
    forms = invariant_form_space(both)
    expected = forms[0].scale(-1)
    for f in forms[1:]:
        expected = expected.add(f.scale(-1))
    answer = is_self_dual(both)
    assert answer.verdict == "yes" and answer.reason is None
    assert answer.metric == expected



def test_is_self_dual_abelian_by_seeded_points():
    """Abelian algebras of dim 3..7: every basis form is degenerate and
    the grid is far over budget, so the seeded points find the metric."""
    start = time.monotonic()
    for d in range(3, 8):
        alg = LieAlgebra(QQ, d, {})
        answer = is_self_dual(alg)
        assert answer.verdict == "yes"
        assert answer.metric.is_nondegenerate()
        assert answer.metric.invariance_witness(alg) is None
    assert time.monotonic() - start < 1.0


_SEEDED_METRICS = {
    (QQ, 6): ["0 6 0 -6 -2 2", "6 1 0 6 -2 1", "0 0 -1 3 -3 2",
              "-6 6 3 -4 -2 -4", "-2 -2 -3 -2 6 -5", "2 1 2 -4 -5 3"],
    (QQ, 7): ["6 -1 5 7 -1 -7 -3", "-1 1 0 -1 7 5 6", "5 0 -3 0 -2 2 7",
              "7 -1 0 7 -4 1 -5", "-1 7 -2 -4 -3 -5 5", "-7 5 2 1 -5 -6 2",
              "-3 6 7 -5 5 2 5"],
    (PrimeField(3), 5): ["1 1 1 2 0", "1 2 1 2 2", "1 1 0 1 1", "2 2 1 0 0",
                         "0 2 1 0 2"],
}


@pytest.mark.parametrize("field,d", list(_SEEDED_METRICS), ids=str)
def test_is_self_dual_seeded_points_pin_the_metric(field, d):
    """Step 5 on Abelian algebras: the exact metric of the first
    non-degenerate seeded point is fixed by the seed."""
    answer = is_self_dual(LieAlgebra(field, d, {}))
    assert answer.verdict == "yes"
    assert answer.metric == BilinearForm(Matrix(field, [
        [string_to_scalar(field, x) for x in row.split()]
        for row in _SEEDED_METRICS[(field, d)]]))


def test_is_self_dual_zero_dimensional_algebra():
    """d = 0: the empty form is an invariant metric (its determinant is 1)."""
    for field in (QQ, PrimeField(3)):
        answer = is_self_dual(LieAlgebra(field, 0, {}))
        assert answer.verdict == "yes"
        assert answer.metric == BilinearForm.zero(field, 0)
        assert answer.metric.is_nondegenerate()
        assert answer.certificate is None and answer.reason is None


def test_is_self_dual_grid_counts_distinct_points_over_fp():
    """Over F_2 the grid {0, 1}^2 is all of F_2^2: four points."""
    answer = is_self_dual(truncated_algebra(4, field=PrimeField(2)))
    assert answer.verdict == "no"
    assert answer.certificate == {"kind": "generic-determinant-zero",
                                  "space_dim": 2, "matrix_dim": 5,
                                  "grid_points": 4}

def test_orthogonal_complement_pins():
    a3 = truncated_algebra(3)
    m = canonical_metric(3)
    line = Subspace.coordinate(QQ, 4, [3])
    assert orthogonal_complement(a3, m, line) == \
        Subspace.coordinate(QQ, 4, [1, 2, 3])
    assert orthogonal_complement(a3, m, Subspace.full(QQ, 4)).is_zero()
    assert orthogonal_complement(a3, m, Subspace.zero(QQ, 4)) == \
        Subspace.full(QQ, 4)


def test_orthogonal_complement_properties():
    a3 = truncated_algebra(3)
    m = canonical_metric(3, 7)
    rng = random.Random(11)
    for _ in range(25):
        vecs = [tuple(QQ(rng.randint(-4, 4)) for _ in range(4))
                for _ in range(rng.randint(0, 4))]
        s = Subspace(QQ, 4, vecs)
        perp = orthogonal_complement(a3, m, s)
        assert perp.dim == 4 - s.dim
        assert orthogonal_complement(a3, m, perp) == s


def test_orthogonal_complement_rejects_degenerate():
    with pytest.raises(ValueError):
        orthogonal_complement(truncated_algebra(3), BilinearForm.zero(QQ, 4),
                              Subspace.zero(QQ, 4))


def test_orthogonal_complement_rejects_mixed_fields():
    f5 = PrimeField(5)
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        orthogonal_complement(truncated_algebra(3), canonical_metric(3),
                              Subspace(f5, 4, [[1, 4, 0, 0]]))
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        orthogonal_complement(truncated_algebra(3, field=f5), canonical_metric(3),
                              Subspace.zero(f5, 4))


def test_family_members_indecomposable():
    for n in (0, 3, 6, 9, 12):
        alg = truncated_algebra(n)
        metric = canonical_metric(n)
        assert decomposability_check(alg, metric) is None


def test_decomposability_abelian_plane():
    split = decomposability_check(LieAlgebra(QQ, 2, {}), _identity_form(2))
    assert split is not None
    pieces = {split.component, split.complement}
    assert pieces == {Subspace.coordinate(QQ, 2, [0]),
                      Subspace.coordinate(QQ, 2, [1])}


def test_decomposability_recovers_direct_sum_blocks():
    a3 = truncated_algebra(3)
    both = direct_sum(a3, a3)
    metric = form_block_sum(canonical_metric(3), canonical_metric(3))
    split = decomposability_check(both, metric)
    assert split is not None
    assert {split.component, split.complement} == \
        {Subspace.coordinate(QQ, 8, [0, 1, 2, 3]),
         Subspace.coordinate(QQ, 8, [4, 5, 6, 7])}
    assert isinstance(split, Decomposition)


def test_decomposability_validates_input():
    a3 = truncated_algebra(3)
    with pytest.raises(ValueError):
        decomposability_check(a3, BilinearForm.zero(QQ, 4))
    with pytest.raises(ValueError):
        decomposability_check(a3, _identity_form(4))  # not invariant



def _four_condition_scan(alg, form, ideals):
    """Reference split search: the first proper J in the list with B|_J
    non-degenerate, J meeting its orthogonal complement trivially, and
    both J and the complement ideals, each condition checked directly."""
    for j in ideals:
        if j.dim == 0 or j.dim == alg.dim:
            continue
        if det(form.restrict(j)) == 0:
            continue
        perp = orthogonal_complement(alg, form, j)
        if not j.intersect(perp).is_zero():
            continue
        if alg.is_ideal(j) and alg.is_ideal(perp):
            return Decomposition(j, perp)
    return None


def _dext_on_fifteen_dim_base(rotations):
    """A line acting on the 15-dim Euclidean space, by zero or by
    rotations in the planes (e0, e1) .. (e12, e13)."""
    rho = [[0] * 15 for _ in range(15)]
    if rotations:
        for a in range(0, 14, 2):
            rho[a + 1][a], rho[a][a + 1] = 1, -1
    return double_extend(DoubleExtensionInput(
        15, _identity_form(15), LieAlgebra(QQ, 1, {}),
        (Matrix(QQ, rho),)))


def test_decomposability_matches_the_four_condition_scan():
    a3, a6 = truncated_algebra(3), truncated_algebra(6)
    cases = []
    for other, n in ((a3, 3), (a6, 6)):
        cases.append((direct_sum(a3, other),
                      form_block_sum(canonical_metric(3), canonical_metric(n)),
                      None))
    for n in (3, 6, 9, 12):
        ideals = classify_ideals(n, cross_check=False).subspaces()
        for b in (0, 1):
            cases.append((truncated_algebra(n), canonical_metric(n, b), ideals))
    # With the zero action the output is Abelian and all 2^17 coordinate
    # subspaces are ideals; both scans stop in the first 17, so the head
    # of the enumeration's order (dimension, then indices) stands in for it.
    alg, metric = _dext_on_fifteen_dim_base(False)
    assert alg.is_abelian()
    cases.append((alg, metric, [Subspace.coordinate(QQ, 17, c) for k in (1, 2)
                                for c in itertools.combinations(range(17), k)]))
    alg, metric = _dext_on_fifteen_dim_base(True)
    cases.append((alg, metric, enumerate_coordinate_ideals(alg, 1 << 17)))
    # the rotated A3 + A3 splits, but along no coordinate ideal: both miss it
    both = direct_sum(a3, a3)
    rng = random.Random(3)
    lower = Matrix(QQ, [[1 if i == j else rng.randint(-2, 2) if j < i else 0
                         for j in range(8)] for i in range(8)])
    p = lower * lower.transpose()
    block = form_block_sum(canonical_metric(3), canonical_metric(3)).matrix
    cases.append((_rotated(both, p),
                  BilinearForm(p * block * p.transpose()), None))
    splits = []
    for alg, metric, ideals in cases:
        if ideals is None:
            ideals = enumerate_coordinate_ideals(alg)
        split = decomposability_check(alg, metric, ideals)
        expected = _four_condition_scan(alg, metric, ideals)
        assert split == expected
        if split is not None:
            assert split.component.basis == expected.component.basis
            assert split.complement.basis == expected.complement.basis
        splits.append(split is not None)
    assert splits == [True, True] + [False] * 8 + [True, True, False]

def _oscillator_input():
    acting = LieAlgebra(QQ, 1, {})
    rho = Matrix(QQ, [[-1, 0], [0, 1]])
    return DoubleExtensionInput(2, _antidiag(2), acting, (rho,))


def test_double_extend_profile_matches_family_member():
    alg, metric = double_extend(_oscillator_input())
    assert alg.dim == 4
    assert alg.labels == ("b0", "a0", "a1", "b0*")
    assert metric.is_nondegenerate()
    assert metric.invariance_witness(alg) is None
    assert invariant_profile(alg) == invariant_profile(truncated_algebra(3))
    assert truncated_algebra(3).is_isomorphism(alg, Matrix.identity(QQ, 4))


def test_double_extend_bracket_table():
    alg, metric = double_extend(_oscillator_input())
    assert alg.sc == {(0, 1): ((1, QQ(-1)),),
                      (0, 2): ((2, QQ(1)),),
                      (1, 2): ((3, QQ(-1)),)}
    # metric blocks: zero on acting, pairing with the dual, omega inside
    assert metric.entry(0, 0) == 0
    assert metric.entry(0, 3) == 1
    assert metric.entry(1, 2) == 1
    assert metric.entry(3, 3) == 0


def test_double_extend_zero_action_is_decomposable():
    acting = LieAlgebra(QQ, 1, {})
    inp = DoubleExtensionInput(2, _identity_form(2), acting,
                               (Matrix.zeros(QQ, 2, 2),))
    alg, metric = double_extend(inp)
    assert alg.is_abelian()
    assert decomposability_check(alg, metric) is not None


def test_double_extend_nothing_acting():
    omega = _antidiag(3)
    alg, metric = double_extend(
        DoubleExtensionInput(3, omega, LieAlgebra(QQ, 0, {}), ()))
    assert alg.dim == 3 and alg.sc == {}
    assert metric.matrix == omega.matrix


def test_double_extend_pairing_block():
    inp = _oscillator_input()
    paired = DoubleExtensionInput(inp.abelian_dim, inp.omega, inp.acting,
                                  inp.action,
                                  BilinearForm.from_entries(QQ, [[9]]))
    alg, metric = double_extend(paired)
    assert metric.entry(0, 0) == 9
    assert metric.is_nondegenerate()
    assert metric.invariance_witness(alg) is None


def test_double_extend_validates_input():
    acting = LieAlgebra(QQ, 1, {})
    not_skew = Matrix(QQ, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        double_extend(DoubleExtensionInput(2, _antidiag(2), acting,
                                           (not_skew,)))
    with pytest.raises(ValueError):
        double_extend(DoubleExtensionInput(2, BilinearForm.zero(QQ, 2),
                                           acting, (Matrix.zeros(QQ, 2, 2),)))
    with pytest.raises(ValueError):
        double_extend(DoubleExtensionInput(2, _antidiag(2), acting, ()))
    # action must be a representation of the acting bracket
    nonab = _two_dim_nonabelian()
    d1 = Matrix(QQ, [[-1, 0], [0, 1]])
    with pytest.raises(ValueError):
        double_extend(DoubleExtensionInput(2, _antidiag(2), nonab, (d1, d1)))


def _contracted_so21():
    so21 = _so21()
    metric = BilinearForm(so21.killing_form().matrix.scale(QQ(1, 2)))
    return wigner_contract(
        ContractionInput(so21, metric, Subspace.coordinate(QQ, 3, [0])))


def test_wigner_contraction_profile():
    alg, metric = _contracted_so21()
    assert alg.dim == 4
    assert alg.labels == ("b0", "p0", "p1", "b0~")
    assert metric.is_nondegenerate()
    assert metric.invariance_witness(alg) is None
    assert invariant_profile(alg) == invariant_profile(truncated_algebra(3))


def test_wigner_contraction_block_shape():
    """The output is a double extension of an Abelian algebra: the
    derived algebra sits inside P + copy, and that ideal brackets into
    the central copy alone."""
    alg, _ = _contracted_so21()
    j = Subspace.coordinate(QQ, 4, [1, 2, 3])
    copy = Subspace.coordinate(QQ, 4, [3])
    assert j.contains_subspace(alg.derived_series()[1])
    assert copy.contains_subspace(_span_of_brackets(alg, j, j))
    # the copy is central
    assert alg.center().contains_subspace(copy)


def test_wigner_contraction_along_x1_is_the_dim4_member():
    """Along x1, where B(x1, x1) = 1, phi: T0 -> b0, T1 -> p0 + p1,
    T2 -> -p0 + p1, T3 -> -[phi T1, phi T2] maps A3 onto the output."""
    so21 = _so21()
    metric = BilinearForm(so21.killing_form().matrix.scale(QQ(1, 2)))
    out, _ = wigner_contract(ContractionInput(so21, metric, Subspace.coordinate(QQ, 3, [1])))
    images = [[1, 0, 0, 0], [0, 1, 1, 0], [0, -1, 1, 0]]
    images.append([-c for c in out.bracket(images[1], images[2])])
    phi = Matrix(QQ, list(zip(*images)))
    assert det(phi) == 4
    assert truncated_algebra(3).is_isomorphism(out, phi)


def test_wigner_contraction_along_x0_is_not_the_dim4_member():
    """Along x0, where B(x0, x0) = -1, ad b0 rotates (p0, p1): its
    characteristic polynomial is l^4 + l^2, while every ad x of A3 has
    l^2 (l^2 - a0^2), a0 the T0-coordinate of x.  An isomorphism phi
    gives ad phi(b0) = phi ad b0 phi^-1, the same polynomial, so a0 would
    be a rational root of a0^2 + 1."""
    sympy = pytest.importorskip("sympy")
    lam, a = sympy.Symbol("lam"), sympy.symbols("a0:4")

    def charpoly(grid):
        return sympy.expand(sympy.Matrix(grid).charpoly(lam).as_expr())

    out, _ = _contracted_so21()
    ad_b0 = out.adjoint([1, 0, 0, 0])
    assert charpoly([[sympy.Rational(str(x)) for x in row] for row in ad_b0.rows]) == \
        lam ** 4 + lam ** 2
    a3 = truncated_algebra(3)
    ad_x = [[sum(a[k] * sympy.Rational(str(a3.structure_constant(k, j, i))) for k in range(4))
             for j in range(4)] for i in range(4)]
    assert charpoly(ad_x) == sympy.expand(lam ** 2 * (lam ** 2 - a[0] ** 2))
    gap = sympy.Poly(lam ** 4 + lam ** 2 - charpoly(ad_x), lam).coeffs()
    roots = sympy.solve(gap, a[0], dict=True)
    assert roots and not any(r[a[0]].is_rational for r in roots)


def test_wigner_contraction_abelian_input():
    ab = LieAlgebra(QQ, 3, {})
    alg, metric = wigner_contract(
        ContractionInput(ab, _identity_form(3),
                         Subspace.coordinate(QQ, 3, [1])))
    assert alg.dim == 4 and alg.is_abelian()
    assert metric.is_nondegenerate()


def test_wigner_contraction_rejects_bad_loci():
    so21 = _so21()
    metric = BilinearForm(so21.killing_form().matrix.scale(QQ(1, 2)))
    with pytest.raises(ValueError):
        wigner_contract(ContractionInput(so21, metric, Subspace.zero(QQ, 3)))
    with pytest.raises(ValueError):
        wigner_contract(ContractionInput(so21, metric, Subspace.full(QQ, 3)))
    with pytest.raises(ValueError):
        wigner_contract(ContractionInput(so21, metric,
                                         Subspace.coordinate(QQ, 3, [0, 1])))
    # metric restricted to the locus must stay non-degenerate
    a3 = truncated_algebra(3)
    with pytest.raises(ValueError):
        wigner_contract(ContractionInput(a3, canonical_metric(3),
                                         Subspace.coordinate(QQ, 4, [3])))


def test_extension_candidates():
    assert double_extension_candidates(3) == [1, 2]
    assert double_extension_candidates(6) == [2]
    assert double_extension_candidates(9) == []
    with pytest.raises(ValueError):
        double_extension_candidates(4)
    pairs = [(m, n) for n in range(0, 31, 3)
             for m in double_extension_candidates(n)]
    assert pairs == [(1, 3), (2, 3), (2, 6)]


def test_derived_suffix_check():
    assert derived_suffix_check(12, 2)
    assert derived_suffix_check(6, 2)
    for n in (3, 6, 9):
        for m in range(0, n + 1):
            assert derived_suffix_check(n, m)
    with pytest.raises(ValueError):
        derived_suffix_check(6, 7)


def test_derived_suffix_oracle():
    a12 = truncated_algebra(12)
    s = suffix_subspace(12, 2)
    assert _span_of_brackets(a12, s, s) == suffix_subspace(12, 5)


def test_deeper_verdicts():
    assert deeper_verdict(3).verdict == Verdict.WIGNER_OBTAINABLE
    assert deeper_verdict(6).verdict == Verdict.ABELIAN_DOUBLE_EXTENSION_ONLY
    assert deeper_verdict(9).verdict == Verdict.DEEPER
    assert deeper_verdict(12).verdict == Verdict.DEEPER
    v = deeper_verdict(6)
    assert isinstance(v, DeeperVerdict)
    assert v.n == 6 and v.candidates == (2,)
    with pytest.raises(ValueError):
        deeper_verdict(4)
    with pytest.raises(ValueError):
        deeper_verdict(0)


def test_verdict_wire_values():
    assert Verdict.WIGNER_OBTAINABLE.value == "wigner-obtainable"
    assert Verdict.ABELIAN_DOUBLE_EXTENSION_ONLY.value == \
        "abelian-double-extension-only"
    assert Verdict.DEEPER.value == "deeper"


def test_verdict_follows_from_quotient_self_duality():
    """n=6: the only candidate quotient is the non-self-dual 2-dim
    algebra, which rules the contraction route out."""
    a6 = truncated_algebra(6)
    b = a6.quotient(suffix_subspace(6, 2))
    assert b.dim == 2
    assert is_self_dual(b).verdict == "no"
    a3 = truncated_algebra(3)
    assert is_self_dual(a3.quotient(suffix_subspace(3, 1))).verdict == "yes"


def test_invariant_profile_values():
    p = invariant_profile(truncated_algebra(3))
    assert p.dim == 4
    assert p.derived_dims == (4, 3, 1, 0)
    assert p.lower_central_dims == (4, 3)
    assert p.center_dim == 1
    assert p.solvable and not p.nilpotent
    assert p.self_dual == "yes"
    h = invariant_profile(_heisenberg())
    assert h.derived_dims == (3, 1, 0)
    assert h.nilpotent and h.solvable
    assert h.self_dual == "no"


def test_construction_error_is_runtime_error():
    assert issubclass(ConstructionError, RuntimeError)


_BROKEN_POSTCONDITIONS = [
    (LieAlgebra, "check_jacobi", lambda alg: JacobiWitness(0, 1, 2, ()), "violates Jacobi"),
    (BilinearForm, "invariance_witness", lambda form, alg: (0, 1, 2), "not invariant"),
    (BilinearForm, "is_nondegenerate", lambda form: False, "is degenerate"),
]


@pytest.mark.parametrize("owner, name, broken, message", _BROKEN_POSTCONDITIONS,
                         ids=[n for _, n, _, _ in _BROKEN_POSTCONDITIONS])
def test_constructions_refuse_an_output_that_fails_a_postcondition(
        monkeypatch, owner, name, broken, message):
    """Each check fails only inside the postcondition step, so the inputs
    still validate and the error comes from the output."""
    enforce = selfdual._enforce_metric_postconditions

    def failing(alg, metric, what):
        with monkeypatch.context() as m:
            m.setattr(owner, name, broken)
            enforce(alg, metric, what)

    monkeypatch.setattr(selfdual, "_enforce_metric_postconditions", failing)
    with pytest.raises(ConstructionError, match=f"^double extension output .*{message}"):
        double_extend(_oscillator_input())
    with pytest.raises(ConstructionError, match=f"^contraction output .*{message}"):
        _contracted_so21()
