"""Hat maps, family members, the diagonal-metric solver, ideal classification."""

import functools
import itertools
import random

import pytest

from liealg.core import LieAlgebra
from liealg.family import (
    ClassificationMismatchError,
    canonical_metric,
    classify_ideals,
    enumerate_coordinate_ideals,
    hat_shift_automorphism,
    single_diagonal_metric_solve,
    skip_subspace,
    suffix_subspace,
    truncated_algebra,
)
from liealg.fields import PrimeField, QQ
from liealg.hats import (
    IDENTITY_HAT,
    MOD3_BALANCED,
    BalancedMod3,
    HatPropertyReport,
    IdentityHat,
    RangeHat,
    ZModHat,
    hat_properties,
    jacobi_hat_scan,
)
from liealg.linalg import Subspace, det
from liealg.selfdual import derived_suffix_check, double_extension_candidates


def test_hat_values():
    assert MOD3_BALANCED.value(-2) == 1
    assert MOD3_BALANCED.value(2) == -1
    assert MOD3_BALANCED.value(3) == 0
    assert [MOD3_BALANCED.value(i) for i in range(-3, 4)] == \
        [0, 1, -1, 0, 1, -1, 0]
    assert IDENTITY_HAT.value(7) == 7
    assert RangeHat(2, (0, 1)).value(-1) == 1
    assert ZModHat(4).value(-1) == 3


def test_balanced_values_stay_balanced():
    for i in range(-50, 51):
        v = MOD3_BALANCED.value(i)
        assert v in (-1, 0, 1)
        assert (v - i) % 3 == 0


def test_range_hat_requires_complete_residues():
    RangeHat(3, (0, 1, 2))
    RangeHat(3, (-1, 0, 1))
    with pytest.raises(ValueError):
        RangeHat(2, (0, 2))  # both even
    with pytest.raises(ValueError):
        RangeHat(3, (0, 1))  # incomplete


def test_composite_modulus_has_no_field():
    with pytest.raises(ValueError):
        ZModHat(6).default_field()
    assert ZModHat(5).default_field() == PrimeField(5)


def test_hat_properties_balanced():
    report = hat_properties(MOD3_BALANCED, range(-20, 21))
    assert report.multiplicative and report.add1 and report.add2
    # addition is only "almost" preserved: hat(1) + hat(1) != hat(2)
    assert MOD3_BALANCED.value(1) + MOD3_BALANCED.value(1) != \
        MOD3_BALANCED.value(2)


def test_hat_properties_identity():
    report = hat_properties(IDENTITY_HAT, range(-12, 13))
    assert report.multiplicative and report.add1 and report.add2


def test_hat_properties_mod2_range():
    report = hat_properties(RangeHat(2, (0, 1)), range(0, 13))
    assert report.multiplicative
    assert report.add2
    assert not report.add1


def test_jacobi_hat_scan_clean():
    assert jacobi_hat_scan(MOD3_BALANCED, range(0, 31)) is None
    assert jacobi_hat_scan(MOD3_BALANCED, range(-15, 16)) is None
    assert jacobi_hat_scan(IDENTITY_HAT, range(0, 31)) is None


def test_jacobi_hat_scan_mod2_witness():
    w = jacobi_hat_scan(RangeHat(2, (0, 1)), range(0, 13))
    assert w is not None
    assert (w.i, w.j, w.k) == (1, 0, 0)
    assert w.hat_values == (1, 0, 1)


def test_jacobi_hat_scan_composite_modulus_runs():
    # natural reductions are ring maps, so the identity holds mod p
    # for every modulus, field or not
    assert jacobi_hat_scan(ZModHat(4), range(0, 9)) is None
    # lifting the residues back to Z breaks it
    assert jacobi_hat_scan(RangeHat(4, (0, 1, 2, 3)), range(0, 9)) is not None


def test_truncated_algebra_tables():
    a3 = truncated_algebra(3)
    assert a3.dim == 4
    assert a3.sc == {(0, 1): ((1, QQ(-1)),),
                     (0, 2): ((2, QQ(1)),),
                     (1, 2): ((3, QQ(-1)),)}
    assert a3.labels == ("T0", "T1", "T2", "T3")
    assert a3.grading == (0, 1, 2, 3)
    a0 = truncated_algebra(0)
    assert a0.dim == 1 and a0.is_abelian()


def _constructed_member(n, hat, field):
    """The member through ``LieAlgebra.__init__``: each nonzero hat value
    coerced into the field, as one term per bracket."""
    brackets = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1 - i):
            c = field(hat.value(i - j))
            if c != field.zero:
                brackets[(i, j)] = [(i + j, c)]
    return LieAlgebra(field, n + 1, brackets, labels=tuple(f"T{i}" for i in range(n + 1)),
                      grading=tuple(range(n + 1)))


@pytest.mark.parametrize("hat, field", [
    (MOD3_BALANCED, QQ), (MOD3_BALANCED, PrimeField(2)), (MOD3_BALANCED, PrimeField(5)),
    (IDENTITY_HAT, QQ), (IDENTITY_HAT, PrimeField(7)), (ZModHat(5), PrimeField(5)),
    (ZModHat(2), PrimeField(2)), (RangeHat(2, (0, 1)), QQ), (RangeHat(3, (-3, 1, 5)), QQ)],
    ids=str)
def test_family_members_match_the_constructor_path(hat, field):
    for n in range(20):
        member, reference = truncated_algebra(n, hat, field), _constructed_member(n, hat, field)
        assert member._sc is None
        assert member._scale == reference._scale == 1
        assert list(member._isc.items()) == list(reference._isc.items())
        assert list(member.sc.items()) == list(reference.sc.items())
        assert (member.labels, member.grading) == (reference.labels, reference.grading)
        assert member == reference and hash(member) == hash(reference)


def test_truncated_witt_table():
    witt = truncated_algebra(6, IDENTITY_HAT)
    for i in range(7):
        for j in range(7):
            for k in range(7):
                expected = (i - j) if (k == i + j and i + j <= 6 and i != j) else 0
                assert witt.structure_constant(i, j, k) == expected


def test_family_grading():
    for n in (3, 6, 9):
        assert truncated_algebra(n).check_grading(list(range(n + 1)))


def test_suffix_subspace():
    assert suffix_subspace(6, 3) == Subspace.coordinate(QQ, 7, [3, 4, 5, 6])
    assert suffix_subspace(6, 7).is_zero()
    assert suffix_subspace(6, 0) == Subspace.full(QQ, 7)
    with pytest.raises(ValueError):
        suffix_subspace(6, 8)


def test_skip_subspace():
    assert skip_subspace(6, 3) == Subspace.coordinate(QQ, 7, [1, 3, 4, 5, 6])
    assert skip_subspace(6, 6) == Subspace.coordinate(QQ, 7, [4, 6])
    # degenerate top case: empty suffix, lone line T_{n-1}
    assert skip_subspace(5, 6) == Subspace.coordinate(QQ, 6, [4])
    with pytest.raises(ValueError):
        skip_subspace(6, 1)


def test_canonical_metric_values():
    m = canonical_metric(3)
    assert all(m.entry(i, j) == (1 if i + j == 3 else 0)
               for i in range(4) for j in range(4))
    assert det(m.matrix) == 1
    m5 = canonical_metric(3, 5)
    assert m5.entry(0, 0) == 5
    assert m5.is_nondegenerate()
    # constructible for any n, invariant only when n mod 3 = 0
    m4 = canonical_metric(4)
    assert m4.invariance_witness(truncated_algebra(4)) is not None


def test_metric_b_term_tracks_killing_form():
    """The b-dependence sits at entry (0,0), like the Killing form."""
    for n in (3, 6):
        diff = canonical_metric(n, 7).matrix - canonical_metric(n, 0).matrix
        killing = truncated_algebra(n).killing_form()
        for i in range(n + 1):
            for j in range(n + 1):
                if (i, j) != (0, 0):
                    assert diff.entry(i, j) == 0
                    assert killing.entry(i, j) == 0
        assert diff.entry(0, 0) != 0 and killing.entry(0, 0) != 0


def test_single_diagonal_solver_lemma():
    for n in range(0, 31):
        result = single_diagonal_metric_solve(n)
        assert result.exists == (n % 3 == 0)
        if result.exists:
            assert len(set(result.weights)) == 1
            form = result.form()
            assert form.invariance_witness(truncated_algebra(n)) is None
            assert form.is_nondegenerate()


def test_single_diagonal_solver_pins():
    r6 = single_diagonal_metric_solve(6)
    assert r6.exists and list(r6.weights) == [QQ(1)] * 7
    assert not single_diagonal_metric_solve(5).exists
    assert not single_diagonal_metric_solve(6, IDENTITY_HAT).exists
    assert not single_diagonal_metric_solve(9, IDENTITY_HAT).exists


def test_single_diagonal_solver_mod3_residue_hat():
    # natural mod-3 reduction over F_3: same existence pattern
    hat = ZModHat(3)
    for n in range(0, 13):
        assert single_diagonal_metric_solve(n, hat).exists == (n % 3 == 0)


def test_single_diagonal_form_is_over_the_weights_field():
    # F_3 weights give an F_3 metric, invariant on the F_3 member
    hat = ZModHat(3)
    form = single_diagonal_metric_solve(3, hat).form()
    assert form.field == PrimeField(3)
    assert form.invariance_witness(truncated_algebra(3, hat)) is None
    assert form.is_nondegenerate()
    assert single_diagonal_metric_solve(3).form().field == QQ


def test_enumerate_coordinate_ideals_abelian():
    ideals = enumerate_coordinate_ideals(truncated_algebra(0))
    assert len(ideals) == 2
    ab3 = enumerate_coordinate_ideals(
        truncated_algebra(2, field=QQ).quotient(suffix_subspace(2, 1)))
    assert len(ab3) == 2  # 1-dim quotient: zero and full


def test_enumerate_coordinate_ideals_a3():
    a3 = truncated_algebra(3)
    ideals = enumerate_coordinate_ideals(a3)
    assert len(ideals) == 6
    assert Subspace.coordinate(QQ, 4, [1, 3]) in ideals
    for s in ideals:
        assert a3.is_ideal(s)


def test_enumerate_coordinate_ideals_a6():
    a6 = truncated_algebra(6)
    ideals = enumerate_coordinate_ideals(a6)
    assert len(ideals) == 10
    assert Subspace.coordinate(QQ, 7, [1, 3, 4, 5, 6]) in ideals
    assert Subspace.coordinate(QQ, 7, [4, 6]) in ideals
    # sorted by dimension then lexicographic index tuple
    dims = [s.dim for s in ideals]
    assert dims == sorted(dims)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_coordinate_ideals(truncated_algebra(6), max_subsets=4)


def test_classify_ideals_pins():
    assert classify_ideals(6).skip_ideals == (3, 6)
    assert classify_ideals(3).skip_ideals == (3,)
    c4 = classify_ideals(4)
    assert c4.skip_ideals == (3,)
    assert c4.suffix_ideals == tuple(range(0, 6))


def test_classify_matches_brute_force_through_dim_13():
    for n in range(0, 13):
        c = classify_ideals(n)  # cross-check raises on mismatch
        claimed = c.subspaces()
        brute = enumerate_coordinate_ideals(truncated_algebra(n))
        assert set(claimed) == set(brute)
        assert len(claimed) == len(brute)


def test_classified_subspaces_are_ideals():
    for n in (3, 4, 5, 6, 9):
        alg = truncated_algebra(n)
        for s in classify_ideals(n, cross_check=False).subspaces():
            assert alg.is_ideal(s)


def test_degenerate_skip_ideal_for_n_equals_two_mod_three():
    # span{T_{n-1}} is an ideal exactly when n = 2 mod 3
    for n in (2, 5, 8, 11):
        assert n + 1 in classify_ideals(n, cross_check=False).skip_ideals
        alg = truncated_algebra(n)
        assert alg.is_ideal(Subspace.coordinate(QQ, n + 1, [n - 1]))
    for n in (3, 4, 6, 7, 9):
        assert n + 1 not in classify_ideals(n, cross_check=False).skip_ideals


def test_classification_mismatch_raises():
    # a hat with a different zero pattern breaks the closed form
    with pytest.raises(ClassificationMismatchError):
        classify_ideals(6, ZModHat(5))


def test_classify_ideals_rejects_negative_n():
    for cross_check in (False, True):
        with pytest.raises(ValueError, match="n must be non-negative"):
            classify_ideals(-1, cross_check=cross_check)
    assert classify_ideals(0, cross_check=True).suffix_ideals == (0, 1)


def test_hat_shift_automorphism():
    phi6 = hat_shift_automorphism(6)
    assert phi6 is not None
    a6 = truncated_algebra(6)
    assert a6.is_automorphism(phi6)
    t = a6.basis_vector
    assert phi6 * t(1) == tuple(-x for x in t(2))
    assert phi6 * t(2) == tuple(-x for x in t(1))
    assert phi6 * t(3) == tuple(-x for x in t(3))
    assert hat_shift_automorphism(7) is None
    for n in (3, 9, 12):
        alg = truncated_algebra(n)
        phi = hat_shift_automorphism(n)
        assert phi is not None and alg.is_automorphism(phi)


def test_hat_shift_maps_skip_to_suffix():
    for n in (3, 6, 9, 12):
        phi = hat_shift_automorphism(n)
        for m in classify_ideals(n, cross_check=False).skip_ideals:
            skip = skip_subspace(n, m)
            image = Subspace(QQ, n + 1, [phi * v for v in skip.basis])
            assert image == suffix_subspace(n, m - 1)


def _random_table(rng, field, dim, repeats):
    """A seeded bracket table (Jacobi not required); with ``repeats`` every
    bracket lists its targets twice, so some of them cancel."""
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < 0.3:
                terms = [(rng.randrange(dim), rng.randint(-2, 2))
                         for _ in range(rng.randint(1, 2))]
                if repeats:
                    terms += [(k, rng.choice((c, -c))) for k, c in terms]
                brackets[(i, j)] = terms
    return LieAlgebra(field, dim, brackets)


def test_coordinate_ideal_scan_matches_is_ideal_on_every_subset():
    rng = random.Random(83)
    for field in (QQ, PrimeField(3)):
        tables = [LieAlgebra(field, 5, {}), truncated_algebra(6, field=field)]
        tables += [_random_table(rng, field, rng.randint(1, 8), repeats)
                   for repeats in (False, True) for _ in range(6)]
        for alg in tables:
            expected = [Subspace.coordinate(field, alg.dim, c)
                        for size in range(alg.dim + 1)
                        for c in itertools.combinations(range(alg.dim), size)
                        if alg.is_ideal(Subspace.coordinate(field, alg.dim, c))]
            assert enumerate_coordinate_ideals(alg) == expected
    assert len(enumerate_coordinate_ideals(LieAlgebra(QQ, 5, {}))) == 32


def test_hat_properties_witnesses():
    report = hat_properties(RangeHat(3, (0, 1, 2)), range(-4, 5))
    assert (report.multiplicative, report.add1, report.add2) == (False, False, True)
    assert report.witnesses == {"add1": (-4,), "multiplicative": (-4, -4)}
    report = hat_properties(RangeHat(5, (-2, -1, 0, 1, 2)), range(-4, 5))
    assert (report.multiplicative, report.add1, report.add2) == (False, True, True)
    assert report.witnesses == {"multiplicative": (-3, -3)}


class _DuckHat:
    """A hat given by two functions, for identities residue hats never fail."""

    def __init__(self, value, same=lambda a, b: a == b):
        self.calls = 0
        self._value, self.same = value, same

    def value(self, i):
        self.calls += 1
        return self._value(i)


def test_hat_properties_pair_witnesses_and_early_exit():
    # odd and injective, so only the pair form of add1 fails
    report = hat_properties(_DuckHat(lambda i: i ** 3), range(-2, 3))
    assert (report.multiplicative, report.add1, report.add2) == (True, False, True)
    assert report.witnesses == {"add1": (-2, -2)}
    # hat values compared by parity: hat(i - j) = 0 only when i = j
    report = hat_properties(_DuckHat(lambda i: i, lambda a, b: (a - b) % 2 == 0), range(-2, 3))
    assert (report.multiplicative, report.add1, report.add2) == (True, True, False)
    assert report.witnesses == {"add2": (-2, 0)}
    # every identity fails on the first pair, and the scan stops there
    hat = _DuckHat(lambda i: i + 1)
    report = hat_properties(hat, range(-2, 3))
    assert report.witnesses == {"add1": (-2,), "multiplicative": (-2, -2), "add2": (-2, -2)}
    assert hat.calls == 2 + 3 + 3


def test_all_nonzero_element_scans_combinations():
    from liealg.family import _all_nonzero_element
    for field in (QQ, PrimeField(3)):
        space = Subspace(field, 3, [(1, 0, 1), (0, 1, 1)])
        assert _all_nonzero_element(space, field) == tuple(map(field, (1, 1, 2)))
    f2 = PrimeField(2)
    assert _all_nonzero_element(Subspace(f2, 3, [(1, 0, 1), (0, 1, 1)]), f2) is None
    assert _all_nonzero_element(Subspace(QQ, 3, [(1, 0, 0), (0, 1, 0)]), QQ) is None


def _scalar_all_nonzero_element(space, field):
    """The search on dense basis tuples of scalars, kept as the reference."""
    zero = field.zero
    if space.dim == 0:
        return None
    cols = list(zip(*space.basis))
    if any(all(x == zero for x in col) for col in cols):
        return None
    for v in space.basis:
        if all(x != zero for x in v):
            return v
    bound = (space.dim - 1) * space.ambient_dim + 1
    if getattr(field, "characteristic", 0):
        bound = min(bound, field.characteristic - 1)
    for t in range(1, bound + 1):
        tt = field(t)
        v = space.basis[0]
        power = field.one
        acc = list(v)
        for w in space.basis[1:]:
            power = power * tt
            acc = [x + power * y for x, y in zip(acc, w)]
        if all(x != zero for x in acc):
            return tuple(acc)
    return None


def test_all_nonzero_element_equals_the_scalar_reference():
    from liealg.family import _all_nonzero_element
    rng = random.Random(33)
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
        kinds = {"vanishing": 0, "scan": 0, "after t = 1": 0, "ran out": 0}
        # coordinate k of v_0 + t v_1 vanishes at t = 1/k: over F_p every t
        # in 1..p-1 is hit, over Q (p = 3) t = 2 is the first that passes
        p = field.characteristic or 3
        spread = [[1, 0] + [1] * (p - 1), [0, 1] + [-k for k in range(1, p)]]
        corpus = [spread]
        for _ in range(300):
            d = rng.randint(1, 6)
            corpus.append([[0 if rng.random() < 0.3 else rng.choice((-3, -2, -1, 1, 2, 3))
                            for _ in range(d)] for _ in range(rng.randint(1, d))])
        for vectors in corpus:
            d = len(vectors[0])
            space = Subspace(field, d, vectors)
            want = _scalar_all_nonzero_element(space, field)
            assert _all_nonzero_element(space, field) == want
            if any(all(x == 0 for x in col) for col in zip(*space.basis)):
                kinds["vanishing"] += 1
            elif space.dim > 1:
                kinds["scan"] += 1
                kinds["ran out"] += want is None
                kinds["after t = 1"] += want not in (None, tuple(map(sum, zip(*space.basis))))
        # the corpus reaches every branch; over F_2 the scan stops at t = 1,
        # and over Q it never runs out
        assert kinds["vanishing"] and kinds["scan"]
        assert bool(kinds["after t = 1"]) == (field.characteristic != 2)
        assert bool(kinds["ran out"]) == bool(field.characteristic)


def _loop_hat_properties(hat, window):
    """The three identities checked in one loop over the pairs, kept as
    the reference."""
    points = sorted(set(window))
    results = {"multiplicative": True, "add1": True, "add2": True}
    witnesses = {}

    def fail(key, witness):
        if results[key]:
            results[key] = False
            witnesses[key] = witness

    for i in points:
        if results["add1"] and not hat.same(hat.value(-i), -hat.value(i)):
            fail("add1", (i,))
    for i, j in itertools.product(points, repeat=2):
        if results["multiplicative"] and not hat.same(
                hat.value(i * j), hat.value(i) * hat.value(j)):
            fail("multiplicative", (i, j))
        if results["add1"] and not hat.same(
                hat.value(i + j), hat.value(hat.value(i) + hat.value(j))):
            fail("add1", (i, j))
        if results["add2"] and (
                (hat.value(i - j) == 0) != hat.same(hat.value(i), hat.value(j))):
            fail("add2", (i, j))
        if not any(results.values()):
            break
    return HatPropertyReport(results["multiplicative"], results["add1"],
                             results["add2"], witnesses)


def test_hat_properties_equal_the_loop_reference():
    rng = random.Random(33)
    hats = [RangeHat(p, [r + p * rng.randint(-2, 2) for r in range(p)])
            for p in (2, 3, 4, 5, 7) for _ in range(4)]
    hats += [ZModHat(p) for p in (2, 3, 4, 6, 7)] + [MOD3_BALANCED, IDENTITY_HAT]
    hats += [_DuckHat(lambda i: i ** 3), _DuckHat(lambda i: i + 1), _DuckHat(abs),
             _DuckHat(lambda i: i, lambda a, b: (a - b) % 2 == 0),
             _DuckHat(lambda i: i % 3 - 1, lambda a, b: (a - b) % 3 == 0)]
    failed = set()
    for hat in hats:
        for _ in range(5):
            window = rng.sample(range(-9, 10), rng.randint(1, 8))
            report = hat_properties(hat, window)
            assert report == _loop_hat_properties(hat, window)
            failed.update(report.witnesses)
            failed.update(f"{key} at a point" for key, w in report.witnesses.items() if len(w) == 1)
    assert failed == {"multiplicative", "add1", "add2", "add1 at a point"}


def test_truncated_algebra_rejects_negative_n():
    with pytest.raises(ValueError, match="non-negative"):
        truncated_algebra(-1)


@pytest.mark.parametrize("build, n", [
    (canonical_metric, -1),
    (single_diagonal_metric_solve, -1),
    (hat_shift_automorphism, -1),
    (hat_shift_automorphism, -2),
    (double_extension_candidates, -3),
    (functools.partial(suffix_subspace, m=0), -1),
    (functools.partial(skip_subspace, m=2), -1),
    (functools.partial(derived_suffix_check, m=0), -1),
], ids=lambda x: getattr(getattr(x, "func", x), "__name__", str(x)))
def test_member_helpers_reject_negative_n(build, n):
    # a negative n names no member, whatever hat(n) would be
    with pytest.raises(ValueError, match="n must be non-negative"):
        build(n)


def test_hat_equality_hashing_and_names():
    hats = {MOD3_BALANCED, BalancedMod3(), IDENTITY_HAT, IdentityHat(), ZModHat(5), ZModHat(5),
            RangeHat(2, (0, 1)), RangeHat(2, (1, 0))}
    assert len(hats) == 4
    assert RangeHat(2, (0, 1)).name == "modrange:2:{0,1}"
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        ZModHat(1)
    # a ring homomorphism onto Z_6: the identities hold, compared by ZModHat.same
    report = hat_properties(ZModHat(6), range(-6, 7))
    assert (report.multiplicative, report.add1, report.add2) == (True, True, True)
    assert report.witnesses == {}
