"""The invariant-form solve over the ad-module closure against the assembler it replaced.

``invariant_form_space`` solves for the functionals B(e_m, .) of the
module generators M of ``LieAlgebra._module_closure`` and unfolds the
kernel into the d(d+1)/2 entries B_ij, i <= j.  The reference is the
assembler it replaced, the invariance equations of the generating set
over all d(d+1)/2 unknowns (``_assembled_invariant_form_space``): every
returned form must equal the reference's, integer rows and scale, in
order.
"""

from fractions import Fraction

import pytest

from liealg import selfdual
from liealg.core import LieAlgebra, direct_sum
from liealg.family import truncated_algebra
from liealg.fields import PrimeField, QQ
from liealg.hats import IDENTITY_HAT
from liealg.selfdual import invariant_form_space

from test_sparse_oracle import JACOBI_FAILING, _assembled_invariant_form_space, _rotated

F2, F3, F5, F7 = PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7)
H3 = LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]})


def _same_forms(alg):
    forms = invariant_form_space(alg)
    reference = _assembled_invariant_form_space(alg)
    assert [f._cleared() for f in forms] == [f._cleared() for f in reference]
    return forms


def _scaled(alg, c):
    """The table times the scalar c: [x, y]' = c [x, y], again a Lie
    algebra when the table is one."""
    c = alg.field(c)
    return LieAlgebra(alg.field, alg.dim, {key: [(k, c * x) for k, x in terms]
                                           for key, terms in alg.sc.items()})


def _rescaled(alg, factors):
    """The table in the basis e'_i = f_i e_i: [e'_a, e'_b] has the
    coordinates f_a f_b c_ab^k / f_k."""
    f = [alg.field(x) for x in factors]
    return LieAlgebra(alg.field, alg.dim, {
        (a, b): [(k, f[a] * f[b] * x / f[k]) for k, x in terms]
        for (a, b), terms in alg.sc.items()})


@pytest.mark.parametrize("n", range(3, 16))
def test_rotated_members(n):
    _same_forms(_rotated(truncated_algebra(n), n))


@pytest.mark.parametrize("m", (3, 6))
def test_rotated_sums(m):
    a3 = truncated_algebra(3)
    alg = _rotated(direct_sum(a3, truncated_algebra(m)), m)
    assert len(_same_forms(alg)) == (5 if m == 3 else 6)


@pytest.mark.parametrize("field", (QQ, F2, F3, F5, F7), ids=str)
def test_family_members(field):
    for n in (*range(3, 19), 24, 31, 45, 62, 90):
        _same_forms(truncated_algebra(n, field=field))


@pytest.mark.parametrize("d", range(41))
def test_abelian(d):
    assert len(_same_forms(LieAlgebra(QQ, d, {}))) == d * (d + 1) // 2


@pytest.mark.parametrize("alg", (H3, truncated_algebra(10, hat=IDENTITY_HAT), JACOBI_FAILING),
                         ids=("h3", "W10", "jacobi-failing"))
def test_small_tables(alg):
    _same_forms(alg)


def test_module_generators():
    # one root on every family member, two on the sum of two A3, and
    # the whole basis on Abelian input
    for n in (3, 12, 30):
        assert len([r for r in truncated_algebra(n)._module_closure().recipes
                    if r[0] is None]) == 1
    a3 = truncated_algebra(3)
    for alg, roots in ((_rotated(direct_sum(a3, a3), 0), 2), (LieAlgebra(QQ, 5, {}), 5)):
        closure = alg._module_closure()
        assert len(closure.words) == alg.dim
        assert len([r for r in closure.recipes if r[0] is None]) == roots


def test_width_follows_the_recipes(monkeypatch):
    """Digits past 2^40 on long closure words.

    A word's functional g_t = -g_t0 o L ad_s has digits at most D_t =
    R_s D_t0 (R_s the largest column sum of |L ad_s|, D = 1 at a root),
    and the relations and unfolded entries are sums of such terms with
    the integer coefficients the closure gives, so the width taken above
    the largest of these sums keeps every digit below 2^(w-1) and the
    decoded equations exact.  Scaling a rotated
    table by 10^12 multiplies every R_s by 10^12; rescaling its basis
    by factors with several denominators gives the integer table a
    large scale L and large entries.  Both need widths past 40 bits,
    and both must still give the reference's forms.
    """
    widths = []
    real = selfdual._width
    monkeypatch.setattr(selfdual, "_width", lambda bound: widths.append(real(bound)) or widths[-1])
    big = _scaled(_rotated(truncated_algebra(6), 1), 10 ** 12)
    fractional = _rescaled(_rotated(truncated_algebra(5), 2),
                           [Fraction(10 ** 4, k + 1) for k in range(6)])
    assert fractional._scale > 1
    for alg in (big, fractional):
        widths.clear()
        assert len(_same_forms(alg)) >= 1
        assert widths and widths[0] > 41


def test_unfold_touches_only_the_reached_entries(monkeypatch):
    """On Abelian d = 40 every e_m is a root, so the solve has the
    d(d+1)/2 unknowns B(e_m, e_j), m <= j, no equation, and a kernel of
    d(d+1)/2 unit rows.  The unfold sums each row's tag combination of
    functionals once, d entries for each of the d rows, and each unit
    kernel row then reaches one entry B_mj: d^2 + d(d+1)/2 entries in
    all, where a dense unfold would touch every unknown for every
    kernel row, (d(d+1)/2)^2."""
    touched = []
    real = selfdual._combine

    def counting(terms, p):
        terms = [(f, list(row)) for f, row in terms]
        touched.append(sum(len(row) for _, row in terms))
        return real(terms, p)
    monkeypatch.setattr(selfdual, "_combine", counting)
    d = 40
    forms = invariant_form_space(LieAlgebra(QQ, d, {}))
    assert len(forms) == d * (d + 1) // 2
    assert sum(touched) == d * d + d * (d + 1) // 2
