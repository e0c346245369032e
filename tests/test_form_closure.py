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


def _certified(monkeypatch, alg):
    """Check alg's forms against the reference, recording the later
    relations checked on the first kernel, how many of them failed,
    and the shape (rows, unknowns) of each system handed to
    ``nullspace``."""
    checks, systems = [], []
    vanishes, nullspace = selfdual._vanishes, selfdual.nullspace

    def checking(*args):
        checks.append(vanishes(*args))
        return checks[-1]

    def solving(m):
        systems.append((m.nrows, m.ncols))
        return nullspace(m)
    monkeypatch.setattr(selfdual, "_vanishes", checking)
    monkeypatch.setattr(selfdual, "nullspace", solving)
    _same_forms(alg)
    return len(checks), checks.count(False), systems


@pytest.mark.parametrize("field", (QQ, F5), ids=str)
def test_failing_relations_are_solved_in(monkeypatch, field):
    """Rotated A3+A3: the first 2 of its 26 relations give 15 distinct
    equations in the 15 unknowns, with a kernel of dimension 11.  Of
    the 24 later relations, 4 do not vanish on it; their 27 distinct
    equations are solved in the 11 coordinates of that kernel, which
    leaves the 5 forms."""
    a3 = truncated_algebra(3, field=field)
    alg = _rotated(direct_sum(a3, a3), 0)
    assert len(alg._module_closure().relations) == 26
    assert _certified(monkeypatch, alg) == (24, 4, [(15, 15), (27, 11)])


@pytest.mark.parametrize("field", (QQ, F5), ids=str)
def test_a_kernel_that_holds_is_solved_once(monkeypatch, field):
    """Rotated A6: the first 2 of its 15 relations already have the
    final kernel, so the other 13 vanish on it and one system is
    solved."""
    alg = _rotated(truncated_algebra(6, field=field), 6)
    assert len(alg._module_closure().relations) == 15
    assert _certified(monkeypatch, alg) == (13, 0, [(13, 7)])


def test_failing_branch_over_f2_and_on_wide_digits(monkeypatch):
    """The failing branch over F_2 (values tested mod 2), and on a
    rotated A3+A3 scaled by 10^12, whose widths are above 100 bits."""
    a3 = truncated_algebra(3, field=F2)
    checked, failed, systems = _certified(monkeypatch, _rotated(direct_sum(a3, a3), 0))
    assert (checked, failed, len(systems)) == (30, 10, 2)
    a3 = truncated_algebra(3)
    big = _scaled(_rotated(direct_sum(a3, a3), 0), 10 ** 12)
    widths = []
    real = selfdual._width
    monkeypatch.setattr(selfdual, "_width", lambda bound: widths.append(real(bound)) or widths[-1])
    assert _certified(monkeypatch, big) == (24, 4, [(15, 15), (27, 11)])
    assert min(widths) > 100


def test_family_members_solve_every_relation(monkeypatch):
    """On A30 over Q the 63 relations give 20 distinct equations, fewer
    than the 31 unknowns, so all of them are solved and none is left
    to check."""
    assert len(truncated_algebra(30)._module_closure().relations) == 63
    assert _certified(monkeypatch, truncated_algebra(30)) == (0, 0, [(20, 31)])


def test_unfold_decodes_each_entry_once(monkeypatch):
    """On Abelian d = 40 every e_m is a root, so the solve has the
    d(d+1)/2 unknowns B(e_m, e_j), m <= j, no relation, one system
    without equations and a kernel of d(d+1)/2 unit rows.  No word is
    walked but the roots, so the only sums are the unfold's: each
    row's tag combination of functionals, d entries for each of the d
    rows, d^2 in all.  Each of the d(d+1)/2 entries B_ij, i <= j, is
    decoded once, into the one kernel row it belongs to, at a width of
    2 bits: a unit kernel row has digits of absolute value 1."""
    touched, decoded, widths, systems = [], [], [], []
    combine, digits, width, nullspace = (selfdual._combine, selfdual._digits,
                                         selfdual._width, selfdual.nullspace)

    def counting(terms, p):
        terms = [(f, list(row)) for f, row in terms]
        touched.append(sum(len(row) for _, row in terms))
        return combine(terms, p)

    def decoding(n, w):
        decoded.append(digits(n, w))
        return decoded[-1]
    monkeypatch.setattr(selfdual, "_combine", counting)
    monkeypatch.setattr(selfdual, "_digits", decoding)
    monkeypatch.setattr(selfdual, "_width", lambda bound: widths.append(width(bound)) or widths[-1])
    monkeypatch.setattr(selfdual, "nullspace", lambda m: systems.append(m.nrows) or nullspace(m))
    d = 40
    forms = invariant_form_space(LieAlgebra(QQ, d, {}))
    assert len(forms) == d * (d + 1) // 2
    assert sum(touched) == d * d
    assert len(decoded) == d * (d + 1) // 2
    assert all(len(x) == 1 for x in decoded)
    assert widths == [2, 2] and systems == [0]
