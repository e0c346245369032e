"""Invariant metrics, (in)decomposability, and metric constructions.

The solvers here decide whether an algebra carries a symmetric,
non-degenerate, ad-invariant bilinear form, split metric algebras into
orthogonal ideals when possible, and build new metric algebras two
ways: the double-extension construction (an algebra acting by
metric-skew derivations on an Abelian metric space, glued to its dual)
and the contraction construction (collapsing a metric algebra along a
subalgebra with non-degenerate restricted metric).  Both constructions
verify their defining postconditions - Jacobi, invariance of the
output metric, non-degeneracy - and refuse to return anything that
fails them.  Both read the integer bracket table and assemble their
metrics from the blocks' integer rows.  The double extension checks
its input on integer rows too: each action is cleared once, its
skewness is read off omega applied to its columns, and the
representation identity is compared column by column as combinations
of the cleared actions (``linalg._combine``); the output's brackets
are those rows converted to scalars once.  The sums of invariant forms
tried as metrics are combinations of the forms' integer rows, so no
``Matrix`` arithmetic runs in this module.

The family-specific classification at the end derives, for members of
size n + 1 with n divisible by 3, which double-extension shapes are
arithmetically possible and whether a contraction can produce them.
"""

from __future__ import annotations

import enum
import itertools
import random
from math import lcm
from typing import NamedTuple

from .core import BilinearForm, LieAlgebra, _digits, _form_of_blocks, _width
from .family import enumerate_coordinate_ideals, suffix_subspace, truncated_algebra
from .hats import MOD3_BALANCED
from .io import scalar_to_string
from .linalg import (Matrix, ShapeError, Subspace, _clear, _combine, _equations,
                     _require_same_field, _scalars, _sparse, nullspace)

__all__ = [
    "ConstructionError",
    "invariant_form_space",
    "nondegenerate_invariant_metric",
    "SelfDuality",
    "is_self_dual",
    "orthogonal_complement",
    "Decomposition",
    "decomposability_check",
    "DoubleExtensionInput",
    "double_extend",
    "ContractionInput",
    "wigner_contract",
    "double_extension_candidates",
    "derived_suffix_check",
    "Verdict",
    "DeeperVerdict",
    "deeper_verdict",
    "InvariantProfile",
    "invariant_profile",
]


class ConstructionError(RuntimeError):
    """A construction's enforced postcondition failed."""


# ---------------------------------------------------------------------------
# invariant forms
# ---------------------------------------------------------------------------

def _vanishes(rows: list[dict], p: int) -> bool:
    """Whether every entry of the decoded rows is 0 (mod p over F_p)."""
    return not any(y % p if p else y for row in rows for y in row.values())


def invariant_form_space(alg: LieAlgebra) -> list[BilinearForm]:
    """Basis of the space of symmetric ad-invariant bilinear forms.

    A symmetric invariant form B is an L-module map L -> L*, x |->
    B(x, .) (Bordemann, Acta Math. Univ. Comenianae 66, 1997), so it is
    fixed by its values on module generators.  The solve runs over the
    words of ``LieAlgebra._module_closure``: v_m = e_m for the roots m
    of M, v_t = L [x_s, v_t0] for s in the generating set S (L the
    table's scale).  The unknowns are the functionals f_m = B(e_m, .)
    of the roots, with B(e_m, e_m') and B(e_m', e_m) one unknown for
    two roots: |M| dim - |M|(|M| - 1)/2 of them.  Each word's
    functional follows its recipe, g_t = -g_t0 o L ad_s, since
    B([x_s, v], y) = -B(v, [x_s, y]).  Each relation m L [x_s, v_t0] +
    sum_t r_t v_t = 0 of the closure gives the dim equations
    m (-g_t0 o L ad_s) + sum_t r_t g_t = 0.  Conversely, a solution
    defines B(v_t, y) = g_t(y) on the word basis, with
    B([x_s, v], y) = -B(v, [x_s, y]) for every s and v; by Jacobi the x
    for which that holds form a subalgebra, which holds S, so B is
    invariant.  A table that fails Jacobi has S = the whole basis, and
    there these conditions are the definition of invariance.  Such a B
    is symmetric, and no symmetry equation is asked: b(x, y, z) =
    B([x, y], z) = B(x, [y, z]) is alternating in x, y and in y, z, so
    b(z, x, y) = b(x, y, z), and B(z, [x, y]) = B([z, x], y) = B([x, y],
    z).  So B - B^T vanishes on [L, L] x L in every characteristic, F_2
    included; every word that is not a root is a bracket, and B is
    symmetric on the roots by the shared unknowns.  The solutions are
    the symmetric invariant forms, each once.

    Each g_t(e_j) is one packed integer over the unknowns (Kronecker
    substitution, as in the identity scans; ``_digits``).  A digit of
    g_t is at most D_t in absolute value: D_m = 1 at a root, and
    D_t = R_s D_t0 along a recipe, with R_s = max_j sum_k |L c_sj^k| and
    the constants taken balanced, in (-p/2, p/2], over F_p.  A
    relation's digits are at most |m| R_s D_t0 + sum_t |r_t| D_t, and
    an unfolded entry's (below) at most (l / lead_i) sum_t |T_it| D_t.
    These are the only packed sums decoded.  The width w is taken above
    the largest of these bounds, call it T (``_width``), so no digit
    carries and the decoded digits are the coefficients exactly.

    Most relations are dependent, so only the first ones are solved:
    the relations in closure order, up to the first at which their
    distinct packed equations (up to sign) number at least the
    unknowns, are decoded and handed to ``nullspace``.  Its kernel K,
    rows z_1..z_s, holds the true kernel.  Every later relation is then
    evaluated on K in one pass: the same walk along the recipes, with
    unknown u standing for sum_k z_k[u] 2^(W k) (z_k balanced over
    F_p), so digit k of a packed sum is its value at z_k.  A value
    sum_u c_u z_k[u] with every |c_u| <= T is at most T sum_u |z_k[u]|
    <= T count max|z|, and W is taken above T max_k sum_u |z_k[u]|, so
    the digits are the values exactly.  A relation whose digits all
    vanish (mod p over F_p) holds on all of K; the digits of the others
    are their equations in the coordinates a of K, and the true kernel
    is the sum_k a_k z_k with a in the kernel of those equations (a
    second ``nullspace``, in s unknowns).  This is exact: a relation
    that holds on K holds on every subspace of K, and every other
    relation is solved.  Most inputs take no second solve.

    The kernel is unfolded from the same walk into the entries B_ij,
    i <= j, each at column i d + j of a row of d^2 columns: the
    row-major order of the d x d matrix, restricted to its upper
    triangle.  The tag rows give lead_i e_i = sum_t T_it v_t, so with l
    the lcm of the leads, l B(e_i, e_j) = sum_t (l / lead_i) T_it
    g_t(e_j); each of these packed sums is decoded once, and its digit k
    is the entry B_ij of the row z_k (l times it over Q).  The unfold is
    linear, so the true kernel unfolds to the combinations sum_k a_k of
    the unfolded rows.  These are canonicalised by ``Subspace._span``,
    so the basis is the canonical one of the space in the upper-triangle
    entries, in their lexicographic order.  Each of its rows is unfolded
    straight into its form's integer rows, column a = i d + j giving
    B_ij = B_ji with (i, j) = divmod(a, d): over Q a primitive
    row with pivot entry l stands for the form with denominator lcm l,
    over F_p its residues with a 1 at the pivot are the form itself, so
    no scalar is built until a form's ``matrix`` is read.
    """
    d, p = alg.dim, alg.field.characteristic
    ad, _, recipes, relations, tags = alg._module_closure()
    # pull[s][k]: the (j, -L c_sj^k), so g o -L ad_s sums g(e_k) times
    # them; reach[s] = R_s
    pull, reach = {}, {}
    for s, rows in ad.items():
        cols = pull[s] = {}
        reach[s] = 0
        for j, terms in rows.items():
            total = 0
            for k, c in terms:
                c = c - p if 2 * c > p > 0 else c
                cols.setdefault(k, []).append((j, -c))
                total += abs(c)
            reach[s] = max(reach[s], total)
    # unknowns[k][j]: the unknown B(e_k, e_j) of the root k, numbered by
    # the unordered pair (its upper-triangle column), so two roots share theirs
    number: dict = {}
    unknowns = {k: [number.setdefault(k * d + j if k <= j else j * d + k, len(number))
                    for j in range(d)] for s, k in recipes if s is None}
    count = len(number)
    bound, top = [], 1
    for s, t0 in recipes:
        bound.append(1 if s is None else reach[s] * bound[t0])
    for s, t0, m, rel in relations:
        top = max(top, abs(m) * reach[s] * bound[t0]
                  + sum(abs(r) * bound[t] for t, r in rel.items()))
    leads = 1 if p else lcm(*(row[q] for q, row in tags.items()))
    unfold = []
    for i in range(d):
        row = tags[i]
        tag = [(c - d, leads // row[i] * x) for c, x in row.items() if c >= d]
        top = max(top, sum(abs(x) * bound[t] for t, x in tag))
        unfold.append(tag)
    w = _width(top)

    def walk(packed: list, funcs: list, upto: int) -> list:
        # funcs[t] = {j: g_t(e_j)} for the words t < upto, unknown u
        # standing for packed[u]
        for s, t0 in recipes[len(funcs):upto]:
            if s is None:
                funcs.append({j: packed[u] for j, u in enumerate(unknowns[t0]) if packed[u]})
            else:
                funcs.append(_combine(((x, pull[s].get(k, ())) for k, x in funcs[t0].items()), 0))
        return funcs

    def values(funcs: list, relation):
        s, t0, m, rel = relation
        return _combine([*((m * x, pull[s].get(k, ())) for k, x in funcs[t0].items()),
                         *((r, funcs[t].items()) for t, r in rel.items())], 0).values()

    symbolic: list = []  # the walk over the unknowns, as far as it is needed
    units = [1 << w * u for u in range(count)]
    eqs: set = set()
    first = 0  # the relations solved
    while first < len(relations) and len(eqs) < count:
        walk(units, symbolic, max((relations[first][1], *relations[first][3])) + 1)
        eqs.update(map(abs, values(symbolic, relations[first])))
        first += 1
    space = nullspace(_equations(alg.field, count, (_digits(x, w) for x in eqs)))
    kernel = [{u: x - p if 2 * x > p > 0 else x for u, x in z.items()}
              for z in space._echelon.values()]
    width = _width(top * max((sum(map(abs, z.values())) for z in kernel), default=0))
    packed = [0] * count
    for k, z in enumerate(kernel):
        for u, x in z.items():
            packed[u] += x << width * k
    funcs = walk(packed, [], len(recipes))
    failed = []  # the later relations' equations in the kernel coordinates
    for r in relations[first:]:
        rows = [_digits(x, width) for x in values(funcs, r)]
        if not _vanishes(rows, p):
            failed += rows
    vectors = [{} for _ in kernel]
    for i, tag in enumerate(unfold):
        for j, x in _combine(((f, funcs[t].items()) for t, f in tag), 0).items():
            if j >= i:
                for k, y in _digits(x, width).items():
                    if p:
                        y %= p
                    if y:
                        vectors[k][i * d + j] = y
    if failed:
        restricted = nullspace(_equations(alg.field, len(kernel), failed))
        vectors = [_combine(((a, vectors[k].items()) for k, a in z.items()), p)
                   for z in restricted._echelon.values()]
    forms = []
    for q, v in Subspace._span(alg.field, d * d, vectors)._echelon.items():
        rows = [{} for _ in range(d)]
        for a, x in v.items():
            i, j = divmod(a, d)
            rows[i][j] = rows[j][i] = x
        forms.append(BilinearForm._of_cleared(alg.field, v[q], rows))
    return forms


# The bounds of is_self_dual: points of the grid certificate, and
# points of the seeded search.
_GRID_BUDGET = 64
_SEARCH_BUDGET = 16


def _sums(forms: list[BilinearForm], points):
    """The sums t_a F_a at the coefficient tuples, built one at a time.

    With F_a = G_a / M_a (G_a the form's integer rows) and L the lcm of
    the M_a, each point's sum is the form (sum t_a (L / M_a) G_a) / L,
    combined straight from the forms' own rows and held as integer rows
    (residues over F_p); no matrix of scalars is built unless a sum's
    ``matrix`` is read.
    """
    field, d, p = forms[0].field, forms[0].dim, forms[0].field.characteristic
    cleared = [f._cleared() for f in forms]
    scale = lcm(*(m for m, _ in cleared))
    for coeffs in points:
        terms = [(t * (scale // m), rows) for t, (m, rows) in zip(coeffs, cleared) if t]
        yield BilinearForm._of_cleared(field, scale, [
            _combine(((t, rows[i].items()) for t, rows in terms), p) for i in range(d)])


def _grid_points(s: int, q: int):
    """The points of {0..q-1}^s with two or more nonzero coordinates, in
    lexicographic order."""
    return (t for t in itertools.product(range(q), repeat=s) if s - t.count(0) >= 2)


def _seeded_points(s: int, d: int):
    """(-1, ..., -1), then points of {-d..d}^s from a fixed seed."""
    yield (-1,) * s
    rng = random.Random(0)
    while True:
        yield tuple(rng.randint(-d, d) for _ in range(s))


class SelfDuality(NamedTuple):
    """Tri-state answer: yes (with metric), no (with certificate),
    unknown (with reason)."""
    verdict: str
    metric: BilinearForm | None = None
    certificate: dict | None = None
    reason: str | None = None


def _center_lemma_rules_out(alg: LieAlgebra) -> bool:
    """Whether dim Z != dim - dim [L, L], so that no invariant form is
    non-degenerate (the center lemma of ``is_self_dual``)."""
    return alg.center().dim != alg.dim - alg._derived_algebra().dim


def is_self_dual(alg: LieAlgebra) -> SelfDuality:
    """Does the algebra admit an invariant metric?

    One procedure over the basis F_1..F_s of ``invariant_form_space``,
    d = alg.dim; each step proves its answer or stops inside a bound.
    0. d = 0: 'yes', with the empty metric (its determinant is 1).
    1. s = 0: 'no', certificate kind ``empty-invariant-form-space``.
    2. The first non-degenerate candidate is the metric ('yes').  The
       candidates are F_1..F_s, then sums t_a F_a (``_sums``, built in
       integers over one common denominator).  Let q = d + 1, or
       min(d + 1, p) over F_p.  If the grid {0..q-1}^s has at most 64
       points, the sums are its points in lexicographic order but for
       those with one nonzero coordinate, multiples of the F_a
       (``_grid_points``).  Otherwise the sums are at 16 points,
       (-1, ..., -1) and then seeded points of {-d..d}^s; a random
       point misses a nonzero P(t) = det(sum t_a F_a), of degree d,
       with probability at most d / (2d + 1) (Schwartz, JACM 1980).
       Every candidate is tested by ``BilinearForm.is_nondegenerate``,
       and only the winner's matrix of scalars is ever built.  No
       candidate is tested when the center lemma rules them all out
       (Medina-Revoy, Ann. Sci. ENS 18, 1985; ``_center_lemma_rules_out``):
       for an invariant non-degenerate B, x is central <=> B([x, y], z)
       = B(x, [y, z]) = 0 for all y, z <=> x is in [L, L]-perp, so
       dim Z = d - dim [L, L] over every field, with or without Jacobi.
       When that equality fails every candidate is degenerate, so the
       lemma changes no answer.  Z and [L, L] are the ones the algebra
       keeps once computed.
    3. No candidate is non-degenerate.  If the grid was searched, P
       vanishes on all of it: P is the zero polynomial when q = d + 1
       (Schwartz), and for p <= d the grid is all of F_p^s: 'no', kind
       ``generic-determinant-zero`` with ``space_dim``, ``matrix_dim``
       and ``grid_points`` (q^s, the whole grid).  Otherwise a nonzero x
       with F_a x = 0 for all a is in the radical of every sum: 'no',
       kind ``common-radical`` with ``space_dim``, ``matrix_dim`` and
       ``witness`` (x as canonical scalar strings).  Otherwise
       'unknown', with the limits in ``reason``.
    """
    if alg.dim == 0:
        return SelfDuality("yes", metric=BilinearForm.zero(alg.field, 0))
    forms = invariant_form_space(alg)
    if not forms:
        return SelfDuality("no", certificate={
            "kind": "empty-invariant-form-space", "space_dim": 0})
    s, d = len(forms), alg.dim
    p = alg.field.characteristic
    q = min(d + 1, p) if p else d + 1
    points = q ** s
    grid = points <= _GRID_BUDGET
    if not _center_lemma_rules_out(alg):
        sums = _sums(forms, _grid_points(s, q) if grid else
                     itertools.islice(_seeded_points(s, d), _SEARCH_BUDGET))
        for metric in itertools.chain(forms, sums):
            if metric.is_nondegenerate():
                return SelfDuality("yes", metric=metric)
    if grid:
        return SelfDuality("no", certificate={
            "kind": "generic-determinant-zero",
            "space_dim": s,
            "matrix_dim": d,
            "grid_points": points,
        })
    radical = nullspace(_equations(alg.field, d, (
        row for f in forms for row in f._cleared()[1])))
    if not radical.is_zero():
        return SelfDuality("no", certificate={
            "kind": "common-radical",
            "space_dim": s,
            "matrix_dim": d,
            "witness": [scalar_to_string(x) for x in radical.basis[0]],
        })
    return SelfDuality("unknown", reason=(
        f"the {s} invariant forms have no common radical, the grid "
        f"certificate needs {q}^{s} points (budget {_GRID_BUDGET}), "
        f"and none of {_SEARCH_BUDGET} seeded combinations with "
        f"coefficients in -{d}..{d} is non-degenerate"))


def nondegenerate_invariant_metric(alg: LieAlgebra) -> BilinearForm | None:
    """The metric of ``is_self_dual``, or None when it has none.

    None covers both a certified 'no' and an 'unknown'; call
    ``is_self_dual`` to tell them apart.
    """
    return is_self_dual(alg).metric


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def orthogonal_complement(alg: LieAlgebra, form: BilinearForm,
                          s: Subspace) -> Subspace:
    """{x : form(x, v) = 0 for all v in s}; form must be non-degenerate."""
    if form.dim != alg.dim or s.ambient_dim != alg.dim:
        raise ShapeError("dimension mismatch")
    _require_same_field(form.field, alg.field)
    _require_same_field(s.field, alg.field)
    if not form.is_nondegenerate():
        raise ValueError("orthogonal complement requires a non-degenerate form")
    return nullspace(_equations(alg.field, alg.dim, form._images(s._echelon.values())))


class Decomposition(NamedTuple):
    """An orthogonal split into two complementary ideals."""
    component: Subspace
    complement: Subspace


def decomposability_check(alg: LieAlgebra, form: BilinearForm,
                          ideals: list[Subspace] | None = None) -> Decomposition | None:
    """Search for an orthogonal split of the metric algebra.

    Scans the supplied ideal list (coordinate enumeration by default)
    for the first proper J that passes two tests: the metric restricted
    to J is non-degenerate, and J is an ideal.  These suffice for the
    invariant, non-degenerate metric B: a non-degenerate B|_J gives
    L = J + J-perp with J and J-perp meeting trivially, and the
    orthogonal complement of an ideal is an ideal (Medina-Revoy, Ann.
    Sci. ENS 18, 1985).  Returns (J, J-perp), or None.
    """
    if not form.is_nondegenerate():
        raise ValueError("decomposability check requires a non-degenerate form")
    witness = form.invariance_witness(alg)
    if witness is not None:
        raise ValueError(f"form is not invariant (witness triple {witness})")
    if ideals is None:
        ideals = enumerate_coordinate_ideals(alg)
    for j in ideals:
        if (0 < j.dim < alg.dim and form._restricted(j).is_nondegenerate()
                and alg.is_ideal(j)):
            # B|_J non-degenerate => L = J + J-perp; J ideal => J-perp ideal
            return Decomposition(j, orthogonal_complement(alg, form, j))
    return None


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

class DoubleExtensionInput(NamedTuple):
    """Data for a double extension.

    abelian_dim: dimension of the Abelian metric space being acted on.
    omega:       non-degenerate symmetric form on that space.
    acting:      the algebra doing the acting (any bracket table).
    action:      one matrix per acting basis element, each skew with
                 respect to omega, jointly a representation.
    pairing:     optional symmetric form on the acting algebra (the
                 freedom in the output metric's acting-acting block).
    """
    abelian_dim: int
    omega: BilinearForm
    acting: LieAlgebra
    action: tuple[Matrix, ...]
    pairing: BilinearForm | None = None


def _validate_double_extension_input(inp: DoubleExtensionInput):
    """Check the input on integer rows and return them.

    The actions are checked one at a time, in order, each on its
    columns cleared to integers (scale s_i, residues over F_p).  With M
    the cleared omega (scale m), w_i = s_i m rho_i^T omega has row x = M
    (column x), as omega is symmetric, and rho_i is skew for omega
    exactly when w_i + w_i^T = 0, diagonal included.  Then all the
    actions are cleared over one scale s, R_i = s rho_i, and with L the
    scale of the acting table C they form a representation exactly when
    L (R_i R_j - R_j R_i) - s sum_k C_ij^k R_k, combined column by
    column (``_combine``), vanishes for every pair i < j.  Returns s, the
    columns of each R_i, and (s_i m, w_i) for each action.
    """
    a, r = inp.abelian_dim, inp.acting.dim
    field, p = inp.acting.field, inp.acting.field.characteristic
    if inp.omega.dim != a:
        raise ValueError("omega dimension does not match the Abelian part")
    if inp.omega.field != field:
        raise ValueError("omega over a different field")
    if not inp.omega.is_nondegenerate():
        raise ValueError("omega must be non-degenerate")
    if len(inp.action) != r:
        raise ValueError("need exactly one action matrix per acting basis element")
    pulled = []
    for idx, rho in enumerate(inp.action):
        if rho.nrows != a or rho.ncols != a or rho.field != field:
            raise ValueError(f"action matrix {idx} has the wrong shape or field")
        si, cols = _clear(field, map(_sparse, zip(*rho.rows)))
        w = inp.omega._images(cols)
        if any((x + w[y].get(z, 0)) % p if p else x + w[y].get(z, 0)
               for z, row in enumerate(w) for y, x in row.items()):
            raise ValueError(
                f"action matrix {idx} is not skew with respect to omega")
        pulled.append((si * inp.omega._cleared()[0], w))
    s, cols = _clear(field, (_sparse(col) for rho in inp.action for col in zip(*rho.rows)))
    action = [cols[i * a:(i + 1) * a] for i in range(r)]
    scale, isc = inp.acting._scale, inp.acting._isc
    for (i, ri), (j, rj) in itertools.combinations(enumerate(action), 2):
        if any(_combine([*((scale * x, ri[z].items()) for z, x in rj[y].items()),
                         *((-scale * x, rj[z].items()) for z, x in ri[y].items()),
                         *((-s * c, action[k][y].items()) for k, c in isc.get((i, j), ()))], p)
               for y in range(a)):
            raise ValueError(
                f"action is not a representation on the pair ({i},{j})")
    if inp.pairing is not None and (inp.pairing.dim != r
                                    or inp.pairing.field != field):
        raise ValueError("pairing form must be a symmetric form on the acting algebra")
    return s, action, pulled


def double_extend(inp: DoubleExtensionInput) -> tuple[LieAlgebra, BilinearForm]:
    """Glue acting algebra, Abelian space, and dual into a metric algebra.

    Output basis order is (acting, Abelian, dual-of-acting).  Brackets:
    the acting block keeps its table; [b, a] = rho_b a; [a, a'] pairs
    into the dual block via omega(rho_b a, a'); [b, beta] is the
    coadjoint action; the dual block is central among itself and the
    Abelian part.  The metric pairs acting with dual identically,
    restricts to omega on the Abelian block, and to ``pairing`` (zero
    by default) on the acting block.  The actions and the pairings
    omega(rho_b a, a') come from the validator's integer rows, each
    converted to scalars once.

    Postconditions (Jacobi, metric invariance, non-degeneracy) are
    checked and a ConstructionError is raised on failure.
    """
    s, action, pulled = _validate_double_extension_input(inp)
    acting, a = inp.acting, inp.abelian_dim
    r, field = acting.dim, acting.field
    dim = r + a + r
    brackets = dict(acting.sc)
    conv = _scalars(field, s)
    for i, cols in enumerate(action):
        for x, col in enumerate(cols):
            brackets[(i, r + x)] = [(r + z, conv(v)) for z, v in col.items()]
    pairings = [(_scalars(field, den), w) for den, w in pulled]
    for x in range(a):
        for y in range(x + 1, a):
            brackets[(r + x, r + y)] = [(r + a + i, conv_w(w[x][y]))
                                        for i, (conv_w, w) in enumerate(pairings) if y in w[x]]
    # coadjoint: a stored c_{ik}^j = c gives [b_i, beta_j] -c beta_k, [b_k, beta_j] c beta_i
    coadjoint: dict = {}
    for (i, k), terms in acting.sc.items():
        for j, c in terms:
            coadjoint.setdefault((i, r + a + j), {})[r + a + k] = -c
            coadjoint.setdefault((k, r + a + j), {})[r + a + i] = c
    brackets.update(sorted(coadjoint.items()))
    labels = tuple(f"b{i}" for i in range(r)) + \
        tuple(f"a{x}" for x in range(a)) + \
        tuple(f"b{i}*" for i in range(r))
    out = LieAlgebra(field, dim, brackets, labels=labels)

    duality = BilinearForm._of_cleared(field, 1, [{i: 1} for i in range(r)])
    blocks = [(r, r, inp.omega), (0, r + a, duality), (r + a, 0, duality)]
    if inp.pairing is not None:
        blocks.append((0, 0, inp.pairing))
    metric = _form_of_blocks(field, dim, blocks)
    _enforce_metric_postconditions(out, metric, "double extension")
    return out, metric


def _enforce_metric_postconditions(alg: LieAlgebra, metric: BilinearForm,
                                   what: str):
    witness = alg.check_jacobi()
    if witness is not None:
        raise ConstructionError(
            f"{what} output violates Jacobi at {witness.i, witness.j, witness.k}")
    bad = metric.invariance_witness(alg)
    if bad is not None:
        raise ConstructionError(
            f"{what} output metric is not invariant (witness triple {bad})")
    if not metric.is_nondegenerate():
        raise ConstructionError(f"{what} output metric is degenerate")


class ContractionInput(NamedTuple):
    """Data for the contraction construction.

    algebra:    the metric algebra being contracted.
    metric:     invariant non-degenerate form on it.
    subalgebra: a nonzero proper subalgebra on which the restricted
                metric is non-degenerate.
    """
    algebra: LieAlgebra
    metric: BilinearForm
    subalgebra: Subspace


def wigner_contract(inp: ContractionInput) -> tuple[LieAlgebra, BilinearForm]:
    """Contract a metric algebra along a metrically non-degenerate subalgebra.

    With P the orthogonal complement of the subalgebra B0, the output
    lives on basis (B0, P, B0~), where B0~ is a second, central copy of
    B0: brackets inside B0 survive, [b, p] keeps only its P-component,
    [p, p'] keeps only its B0-component but lands in the copy B0~, and
    [b, z~] = ([b, z])~.  The metric restricts unchanged to B0 and P,
    pairs B0 with B0~ through the original metric, and vanishes on
    B0~ x B0~.  The output is always, structurally, a double extension
    of the Abelian space P.

    The new basis is v_a = u_a / lead_a, u_a the kernel rows of B0 and
    then of P; ``LieAlgebra._rebase`` writes every [v_a, v_b] in it, and
    one pass keeps the part of each that the output keeps.  A bracket
    [b_i, b_j] = sum_k a_k b_k inside B0 also gives [b_i, b_j~] =
    sum_k a_k b_k~ and [b_j, b_i~] = -sum_k a_k b_k~.

    Postconditions (Jacobi, invariance, non-degeneracy) are enforced.
    """
    alg, omega, b0 = inp.algebra, inp.metric, inp.subalgebra
    field = alg.field
    if omega.dim != alg.dim or b0.ambient_dim != alg.dim:
        raise ShapeError("dimension mismatch")
    if not omega.is_nondegenerate():
        raise ValueError("the metric must be non-degenerate")
    bad = omega.invariance_witness(alg)
    if bad is not None:
        raise ValueError(f"the metric is not invariant (witness triple {bad})")
    if b0.dim == 0 or b0.dim == alg.dim:
        raise ValueError("the subalgebra must be nonzero and proper")
    if not alg.is_subalgebra(b0):
        raise ValueError("the contraction locus must be a subalgebra")
    on_b0 = omega._restricted(b0)
    if not on_b0.is_nondegenerate():
        raise ValueError(
            "the restriction of the metric to the subalgebra must be "
            "non-degenerate")
    p = orthogonal_complement(alg, omega, b0)
    # B0 + P is the whole space, so the copy B0~ starts at z = dim
    r, pd, z = b0.dim, p.dim, alg.dim
    dim = z + r
    brackets: dict[tuple[int, int], list] = {}
    for (a, b), terms in alg._rebase(
            [(u, u[q]) for s in (b0, p) for q, u in s._echelon.items()]).items():
        if b < r:
            brackets[(a, b)] = terms
            brackets[(a, z + b)] = [(z + k, c) for k, c in terms]
            brackets[(b, z + a)] = [(z + k, -c) for k, c in terms]
        elif a < r:
            brackets[(a, b)] = [(k, c) for k, c in terms if k >= r]
        else:
            brackets[(a, b)] = [(z + k, c) for k, c in terms if k < r]
    labels = tuple(f"b{i}" for i in range(r)) + \
        tuple(f"p{x}" for x in range(pd)) + \
        tuple(f"b{i}~" for i in range(r))
    out = LieAlgebra(field, dim, brackets, labels=labels)

    metric = _form_of_blocks(field, dim, [
        (0, 0, on_b0), (0, z, on_b0), (z, 0, on_b0), (r, r, omega._restricted(p))])
    _enforce_metric_postconditions(out, metric, "contraction")
    return out, metric


# ---------------------------------------------------------------------------
# family classification
# ---------------------------------------------------------------------------

def double_extension_candidates(n: int) -> list[int]:
    """The m for which the member of size n+1 could be a double extension
    over the suffix ideal starting at m.

    The ideal must be at most half the algebra (2m <= n + 1, counting
    the metric pairing) and must contain the derived algebra of itself
    viewed from the acting side (n <= 3m); only m = 1, 2 give Abelian
    or almost-Abelian acting parts worth considering, exactly as the
    inequality chain allows.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if MOD3_BALANCED.value(n) != 0:
        raise ValueError("the candidate analysis applies when hat(n) = 0")
    return [m for m in (1, 2) if 2 * m <= n + 1 and n <= 3 * m]


def derived_suffix_check(n: int, m: int) -> bool:
    """Verify [span{T_m..T_n}, span{T_m..T_n}] = span{T_{2m+1}..T_n}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= m <= n:
        raise ValueError("m out of range")
    alg = truncated_algebra(n)
    s = suffix_subspace(n, m)
    return alg._derived_span(s) == suffix_subspace(n, min(2 * m + 1, n + 1))


class Verdict(enum.Enum):
    """How the member of size n+1 relates to the two constructions."""
    WIGNER_OBTAINABLE = "wigner-obtainable"
    ABELIAN_DOUBLE_EXTENSION_ONLY = "abelian-double-extension-only"
    DEEPER = "deeper"


class DeeperVerdict(NamedTuple):
    n: int
    candidates: tuple[int, ...]
    verdict: Verdict


def deeper_verdict(n: int) -> DeeperVerdict:
    """Classify the member of size n+1 against the two constructions.

    A candidate m makes the member a double extension of an Abelian
    algebra by the quotient of the member by the suffix ideal at m.
    The contraction construction additionally needs that quotient to be
    self-dual; if no candidate passes, the member is at best a plain
    double extension, and with no candidates at all it needs more than
    one extension step ("deeper").

    Only suffix (coordinate) ideals are candidates.  For the graded
    members that suffices: the torus t.T_i = t^i T_i acts by
    automorphisms, so the ideals of one dimension meeting a candidate's
    closed conditions form a torus-stable closed subvariety of a
    Grassmannian.  If it is non-empty, the Borel fixed-point theorem
    gives it a fixed point, and as the degrees 0..n are distinct the
    fixed points are coordinate subspaces.  Inputs without the grading
    need that argument anew.
    """
    if MOD3_BALANCED.value(n) != 0:
        raise ValueError("the classification applies when hat(n) = 0")
    if n < 3:
        raise ValueError("the classification applies to members with n >= 3")
    candidates = tuple(double_extension_candidates(n))
    if not candidates:
        return DeeperVerdict(n, candidates, Verdict.DEEPER)
    alg = truncated_algebra(n)
    for m in candidates:
        acting = alg.quotient(suffix_subspace(n, m))
        if is_self_dual(acting).verdict == "yes":
            return DeeperVerdict(n, candidates, Verdict.WIGNER_OBTAINABLE)
    return DeeperVerdict(n, candidates, Verdict.ABELIAN_DOUBLE_EXTENSION_ONLY)


# ---------------------------------------------------------------------------
# invariant profile
# ---------------------------------------------------------------------------

class InvariantProfile(NamedTuple):
    """Cheap isomorphism invariants used to compare constructions."""
    dim: int
    derived_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    center_dim: int
    solvable: bool
    nilpotent: bool
    self_dual: str


def invariant_profile(alg: LieAlgebra) -> InvariantProfile:
    derived = tuple(s.dim for s in alg.derived_series())
    lower = tuple(s.dim for s in alg.lower_central_series())
    return InvariantProfile(
        dim=alg.dim,
        derived_dims=derived,
        lower_central_dims=lower,
        center_dim=alg.center().dim,
        solvable=derived[-1] == 0,
        nilpotent=lower[-1] == 0,
        self_dual=is_self_dual(alg).verdict,
    )
