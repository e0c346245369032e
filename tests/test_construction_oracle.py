"""The constructions and quotients against their dense scalar references.

``double_extend``, ``wigner_contract``, ``LieAlgebra.quotient`` and the
change of basis ``LieAlgebra._rebase`` read the integer bracket table,
eliminate once and assemble their metrics from the blocks' integer rows.
The references below build the same objects the dense way: a ``Matrix``
product per skewness test and a ``structure_constant`` scan for the
coadjoint block, one ``solve`` of the basis change per bracket of the
contraction and of a rotated table, a ``Subspace.reduce``
of a dense bracket per pair of kept basis vectors, and dense grids of
scalars for the metrics.  The two must agree bit for bit: the bracket
table (order included), labels, grading, the metric's integer rows and
matrix, and the serialized document; where the reference raises, the
library must raise the same exception type with the same message.
"""

import random
from fractions import Fraction

from liealg.core import BilinearForm, LieAlgebra, NotAnIdealError, direct_sum, form_block_sum
from liealg.family import canonical_metric, suffix_subspace, truncated_algebra
from liealg.fields import PrimeField, QQ
from liealg.hats import IDENTITY_HAT
from liealg.io import algebra_to_document, dump_document
from liealg.linalg import Matrix, ShapeError, Subspace, solve
from liealg.selfdual import (ConstructionError, ContractionInput, DoubleExtensionInput,
                             _enforce_metric_postconditions, double_extend,
                             orthogonal_complement, wigner_contract)
from test_hatfamily import _random_table
from test_sparse_oracle import JACOBI_FAILING

F5, F7 = PrimeField(5), PrimeField(7)


# -- dense references ---------------------------------------------------------

def _dense_validate_double_extension_input(inp):
    a, r = inp.abelian_dim, inp.acting.dim
    field = inp.acting.field
    if inp.omega.dim != a:
        raise ValueError("omega dimension does not match the Abelian part")
    if inp.omega.field != field:
        raise ValueError("omega over a different field")
    if not inp.omega.is_nondegenerate():
        raise ValueError("omega must be non-degenerate")
    if len(inp.action) != r:
        raise ValueError("need exactly one action matrix per acting basis element")
    g = inp.omega.matrix
    zero = Matrix.zeros(field, a, a)
    for idx, rho in enumerate(inp.action):
        if rho.nrows != a or rho.ncols != a or rho.field != field:
            raise ValueError(f"action matrix {idx} has the wrong shape or field")
        if rho.transpose() * g + g * rho != zero:
            raise ValueError(
                f"action matrix {idx} is not skew with respect to omega")
    for i in range(r):
        for j in range(i + 1, r):
            commutator = inp.action[i] * inp.action[j] - inp.action[j] * inp.action[i]
            expected = Matrix.zeros(field, a, a)
            for k, c in inp.acting.bracket_basis(i, j):
                expected = expected + inp.action[k].scale(c)
            if commutator != expected:
                raise ValueError(
                    f"action is not a representation on the pair ({i},{j})")
    if inp.pairing is not None and (inp.pairing.dim != r
                                    or inp.pairing.field != field):
        raise ValueError("pairing form must be a symmetric form on the acting algebra")


def _dense_double_extend(inp):
    _dense_validate_double_extension_input(inp)
    a, r = inp.abelian_dim, inp.acting.dim
    field = inp.acting.field
    dim = r + a + r
    zero, one = field.zero, field.one
    g = inp.omega.matrix
    brackets = dict(inp.acting.sc)
    for i in range(r):
        rho = inp.action[i]
        for x in range(a):
            brackets[(i, r + x)] = [(r + y, rho.entry(y, x)) for y in range(a)]
    pulled = [rho.transpose() * g for rho in inp.action]
    for x in range(a):
        for y in range(x + 1, a):
            brackets[(r + x, r + y)] = [(r + a + i, pulled[i].entry(x, y))
                                        for i in range(r)]
    for i in range(r):
        for j in range(r):
            brackets[(i, r + a + j)] = [
                (r + a + k, -inp.acting.structure_constant(i, k, j)) for k in range(r)]
    labels = tuple(f"b{i}" for i in range(r)) + \
        tuple(f"a{x}" for x in range(a)) + \
        tuple(f"b{i}*" for i in range(r))
    out = LieAlgebra(field, dim, brackets, labels=labels)
    grid = [[zero] * dim for _ in range(dim)]
    for i in range(r):
        grid[i][r + a + i] = one
        grid[r + a + i][i] = one
        if inp.pairing is not None:
            for j in range(r):
                grid[i][j] = inp.pairing.entry(i, j)
    for x in range(a):
        for y in range(a):
            grid[r + x][r + y] = g.entry(x, y)
    metric = BilinearForm(Matrix(field, grid))
    _enforce_metric_postconditions(out, metric, "double extension")
    return out, metric


def _dense_wigner_contract(inp):
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
    if not _ordered_pair_is_subalgebra(alg, b0):
        raise ValueError("the contraction locus must be a subalgebra")
    zero = field.zero
    on_b0 = omega._restricted(b0)
    if not on_b0.is_nondegenerate():
        raise ValueError(
            "the restriction of the metric to the subalgebra must be "
            "non-degenerate")
    p = orthogonal_complement(alg, omega, b0)
    r, pd = b0.dim, p.dim
    dim = r + pd + r
    change = Matrix(field, list(b0.basis) + list(p.basis)).transpose()

    def coords(v):
        sol = solve(change, v)
        if sol is None:
            raise ConstructionError("basis change became inconsistent")
        return sol[:r], sol[r:]

    brackets = {}

    def put(i, j, terms):
        terms = [(k, c) for k, c in terms if c != zero]
        if terms:
            brackets[(i, j)] = terms

    basis = list(b0.basis) + list(p.basis)
    for a in range(r + pd):
        for b in range(a + 1, r + pd):
            alpha, gamma = coords(alg.bracket(basis[a], basis[b]))
            if b < r:
                if any(gamma):
                    raise ConstructionError("the subalgebra is not closed under the bracket")
                put(a, b, [(k, c) for k, c in enumerate(alpha)])
                put(a, r + pd + b, [(r + pd + k, c) for k, c in enumerate(alpha)])
                put(b, r + pd + a, [(r + pd + k, -c) for k, c in enumerate(alpha)])
            elif a < r:
                put(a, b, [(r + y, c) for y, c in enumerate(gamma)])
            else:
                put(a, b, [(r + pd + k, c) for k, c in enumerate(alpha)])
    labels = tuple(f"b{i}" for i in range(r)) + \
        tuple(f"p{x}" for x in range(pd)) + \
        tuple(f"b{i}~" for i in range(r))
    out = LieAlgebra(field, dim, brackets, labels=labels)
    gram_b = on_b0.matrix
    gram_p = omega.restrict(p)
    grid = [[zero] * dim for _ in range(dim)]
    for i in range(r):
        for j in range(r):
            grid[i][j] = gram_b.entry(i, j)
            grid[i][r + pd + j] = gram_b.entry(i, j)
            grid[r + pd + i][j] = gram_b.entry(i, j)
    for x in range(pd):
        for y in range(pd):
            grid[r + x][r + y] = gram_p.entry(x, y)
    metric = BilinearForm(Matrix(field, grid))
    _enforce_metric_postconditions(out, metric, "contraction")
    return out, metric


def _dense_quotient(alg, j):
    if not alg.is_ideal(j):
        raise NotAnIdealError("quotient requires an ideal")
    pivots = set(j.pivot_columns())
    kept = [c for c in range(alg.dim) if c not in pivots]
    pos = {c: a for a, c in enumerate(kept)}
    zero = alg.field.zero
    brackets = {}
    for a, ca in enumerate(kept):
        for b in range(a + 1, len(kept)):
            red = j.reduce(alg.bracket(alg.basis_vector(ca), alg.basis_vector(kept[b])))
            terms = [(pos[c], red[c]) for c in kept if red[c] != zero]
            if terms:
                brackets[(a, b)] = terms
    labels = tuple(alg.labels[c] for c in kept) if alg.labels else None
    grading = None
    if alg.grading is not None and all(
            sum(1 for x in row if x != zero) == 1 for row in j.basis):
        grading = tuple(alg.grading[c] for c in kept)
    return LieAlgebra(alg.field, len(kept), brackets, labels=labels, grading=grading)


def _ordered_pair_is_subalgebra(alg, s):
    rows = s._echelon.values()
    return all(s._contains_row(alg._bracket(u, v)) for u in rows for v in rows)


# -- comparison ------------------------------------------------------------------

def _algebra_state(alg):
    return (alg.field, alg.dim, list(alg.sc.items()), alg.labels, alg.grading,
            list(alg._isc.items()), alg._scale)


def _outcome(construct, *args):
    """What a construction makes of its input: the exception's type and
    message, or the output's state, its metric's rows and matrix, and the
    bytes of its document."""
    try:
        result = construct(*args)
    except (ValueError, ConstructionError) as exc:
        return "error", type(exc), str(exc)
    if isinstance(result, LieAlgebra):
        return "ok", _algebra_state(result), dump_document(algebra_to_document(result))
    out, metric = result
    return ("ok", _algebra_state(out), metric._cleared(), metric.matrix,
            dump_document(algebra_to_document(out, metric)))


def _agree(construct, reference, *args):
    found = _outcome(construct, *args)
    assert found == _outcome(reference, *args)
    return found[0]


# -- inputs -----------------------------------------------------------------------

def _so21():
    return LieAlgebra(QQ, 3, {(0, 1): [(2, 1)], (1, 2): [(0, -1)], (0, 2): [(1, -1)]})


def _half_killing(alg):
    return BilinearForm(alg.killing_form().matrix.scale(Fraction(1, 2)))


def _unimodular(rng, field, d):
    """P = L U, unit triangular factors with entries in {-1, 0, 1}."""
    low = Matrix(field, [[1 if i == j else rng.choice((-1, 0, 1)) if i > j else 0
                          for j in range(d)] for i in range(d)])
    up = Matrix(field, [[1 if i == j else rng.choice((-1, 0, 1)) if i < j else 0
                         for j in range(d)] for i in range(d)])
    return low * up


def _dense_rebase(alg, cols):
    """The brackets of alg in the basis of the columns ``cols``: each
    [cols[a], cols[b]], a < b, solved for in that basis."""
    change = Matrix(alg.field, list(zip(*cols)))
    return {(a, b): list(enumerate(solve(change, alg.bracket(cols[a], cols[b]))))
            for a in range(alg.dim) for b in range(a + 1, alg.dim)}


def _rotated(alg, metric, seed, locus=(0,)):
    """alg and metric in the basis of the columns of a seeded unimodular
    P, and the span of the basis vectors ``locus`` (the line of T0 by
    default) in that basis."""
    d, field = alg.dim, alg.field
    p = _unimodular(random.Random(seed), field, d)
    cols = [p.col(a) for a in range(d)]
    gram = BilinearForm(Matrix(field, [[metric.value(u, v) for v in cols] for u in cols]))
    span = Subspace(field, d, [solve(p, alg.basis_vector(k)) for k in locus])
    return LieAlgebra(field, d, _dense_rebase(alg, cols)), gram, span


def _contraction_inputs():
    for n in range(22):
        alg = truncated_algebra(n)
        loci = [[0]] + ([[n // 2]] if n % 2 == 0 and n else []) + ([[0, n]] if n else [])
        for b in (0, 1, 2):
            metric = canonical_metric(n, b)
            for locus in loci:
                yield ContractionInput(alg, metric, Subspace.coordinate(QQ, n + 1, locus))
    for field in (F5, F7):
        for n in range(1, 13):
            alg = truncated_algebra(n, field=field)
            for b in (0, 1, 3):
                yield ContractionInput(alg, canonical_metric(n, b, field=field),
                                       Subspace.coordinate(field, n + 1, [0]))
    so21 = _so21()
    for vectors in ([[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]], [[1, 1, 0]], [[1, 0, 1]],
                    [[1, 2, 3]], [[1, 0, 0], [0, 1, 0]]):
        yield ContractionInput(so21, _half_killing(so21), Subspace(QQ, 3, vectors))
    for n in (3, 6):
        for seed in range(4):
            for b in (1, 2):
                alg, gram, line = _rotated(
                    truncated_algebra(n), canonical_metric(n, b), seed)
                yield ContractionInput(alg, gram, line)


def _hyperbolic(k, scale, field=QQ):
    return BilinearForm(Matrix(field, [[scale if abs(i - j) == k else 0
                                        for j in range(2 * k)] for i in range(2 * k)]))


def _skew_line_action(rng, k, field=QQ):
    """rho = [[A, B], [C, -A^T]] with B and C skew: skew for the
    hyperbolic form and any multiple of it."""
    a = [[rng.choice((-1, 0, 1, 2)) for _ in range(k)] for _ in range(k)]
    b = [[0] * k for _ in range(k)]
    c = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            b[i][j], c[i][j] = rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))
            b[j][i], c[j][i] = -b[i][j], -c[i][j]
    return Matrix(field, [a[i] + b[i] for i in range(k)] +
                  [c[i] + [-a[j][i] for j in range(k)] for i in range(k)])


def _adjoint_input(acting, metric, pairing=None):
    action = tuple(acting.adjoint(acting.basis_vector(i)) for i in range(acting.dim))
    return DoubleExtensionInput(acting.dim, metric, acting, action, pairing)


def _double_extension_inputs():
    rng = random.Random(41)
    line = LieAlgebra(QQ, 1, {})
    for k in range(1, 7):
        omega = _hyperbolic(k, Fraction(3, 7))
        rho = _skew_line_action(rng, k)
        yield DoubleExtensionInput(2 * k, omega, line, (rho,))
        for f in (Fraction(5, 3), Fraction(-2, 9)):
            yield DoubleExtensionInput(2 * k, omega, line, (rho,),
                                       BilinearForm.from_entries(QQ, [[f]]))
    for k in (1, 2, 3):
        line7 = LieAlgebra(F7, 1, {})
        yield DoubleExtensionInput(2 * k, _hyperbolic(k, 3, F7), line7,
                                   (_skew_line_action(rng, k, F7),),
                                   BilinearForm.from_entries(F7, [[4]]))
    so21 = _so21()
    yield _adjoint_input(so21, _half_killing(so21))
    yield _adjoint_input(so21, _half_killing(so21), _half_killing(so21))
    for n in (3, 6):
        alg = truncated_algebra(n)
        yield _adjoint_input(alg, canonical_metric(n))
        yield _adjoint_input(alg, canonical_metric(n, 2), canonical_metric(n, 1))
    yield DoubleExtensionInput(3, canonical_metric(2), LieAlgebra(QQ, 0, {}), ())


def _rejected_double_extensions():
    line = LieAlgebra(QQ, 1, {})
    omega = _hyperbolic(1, 1)
    rho = Matrix(QQ, [[-1, 0], [0, 1]])
    yield DoubleExtensionInput(2, omega, line, (Matrix(QQ, [[1, 0], [0, 1]]),))  # not skew
    yield DoubleExtensionInput(1, canonical_metric(0, 1), line,
                               (Matrix(QQ, [[2]]),))  # not skew, on the diagonal only
    yield DoubleExtensionInput(2, BilinearForm.zero(QQ, 2), line, (rho,))  # degenerate
    yield DoubleExtensionInput(2, omega, line, ())  # wrong number of actions
    yield DoubleExtensionInput(2, omega, line, (rho, rho))
    plane = LieAlgebra(QQ, 2, {(0, 1): [(1, 1)]})  # [x0, x1] = x1
    yield DoubleExtensionInput(2, omega, plane, (rho, rho))  # not a representation
    yield DoubleExtensionInput(3, omega, line, (rho,))  # omega of the wrong size
    yield DoubleExtensionInput(2, _hyperbolic(1, 1, F5), line, (rho,))  # other field
    yield DoubleExtensionInput(2, omega, line, (Matrix(QQ, [[1, 0, 0]]),))  # wrong shape
    yield DoubleExtensionInput(2, omega, line, (Matrix(F5, [[4, 0], [0, 1]]),))
    yield DoubleExtensionInput(2, omega, line, (rho,), canonical_metric(1))  # pairing size
    yield DoubleExtensionInput(2, omega, line, (rho,), BilinearForm.from_entries(F5, [[1]]))


def _rejected_contractions():
    so21, a3 = _so21(), truncated_algebra(3)
    half = _half_killing(so21)
    yield ContractionInput(so21, half, Subspace.zero(QQ, 3))
    yield ContractionInput(so21, half, Subspace.full(QQ, 3))
    yield ContractionInput(so21, half, Subspace.coordinate(QQ, 3, [0, 1]))  # not closed
    yield ContractionInput(a3, canonical_metric(3), Subspace.coordinate(QQ, 4, [3]))
    yield ContractionInput(a3, canonical_metric(3, 0), Subspace.coordinate(QQ, 4, [0]))
    yield ContractionInput(a3, canonical_metric(4), Subspace.coordinate(QQ, 4, [0]))
    yield ContractionInput(a3, BilinearForm.zero(QQ, 4), Subspace.coordinate(QQ, 4, [0]))
    yield ContractionInput(a3, canonical_metric(3, 1), Subspace.coordinate(QQ, 3, [0]))
    yield ContractionInput(truncated_algebra(4), canonical_metric(4, 1),
                           Subspace.coordinate(QQ, 5, [0]))  # hat(4) != 0: not invariant


def _quotient_inputs():
    a3, a6, so21 = truncated_algebra(3), truncated_algebra(6), _so21()
    heisenberg = LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]})
    fractional = LieAlgebra(QQ, 5, {(0, 1): [(2, Fraction(1, 3)), (3, Fraction(-5, 2))],
                                    (0, 2): [(3, Fraction(2, 7))], (0, 3): [(4, 4)],
                                    (1, 2): [(4, Fraction(-3, 5))]})
    tables = [direct_sum(a3, a3), direct_sum(a6, so21), direct_sum(heisenberg, a3),
              direct_sum(truncated_algebra(5, field=F5), truncated_algebra(3, field=F5)),
              fractional, a6, truncated_algebra(9), truncated_algebra(10, hat=IDENTITY_HAT),
              so21, JACOBI_FAILING]
    for alg in tables:
        ideals = alg.derived_series() + alg.lower_central_series() + [alg.center()]
        for j in ideals:
            yield alg, j
    for n in (6, 9):
        for m in range(n + 2):
            yield truncated_algebra(n), suffix_subspace(n, m)
    # graded tables over ideals not spanned by basis vectors lose the grading
    sum33 = direct_sum(a3, a3)
    yield sum33, Subspace(QQ, 8, [[0, 0, 0, 1, 0, 0, 0, -1]])
    yield LieAlgebra(QQ, 3, {(0, 1): [(2, 1)]}, grading=(1, 1, 2)), Subspace(
        QQ, 3, [[1, 1, 0], [0, 0, 1]])
    yield a6, Subspace.coordinate(QQ, 7, [0])  # not an ideal
    yield so21, Subspace.coordinate(QQ, 3, [2])
    yield JACOBI_FAILING, Subspace.coordinate(QQ, 4, [3])


# -- tests ------------------------------------------------------------------------

def test_contractions_match_the_dense_reference():
    outcomes = [_agree(wigner_contract, _dense_wigner_contract, inp)
                for inp in _contraction_inputs()]
    assert (outcomes.count("ok"), outcomes.count("error")) == (80, 174)


def test_rotated_contractions_use_a_non_coordinate_line():
    alg, gram, line = _rotated(truncated_algebra(6), canonical_metric(6, 1), 0)
    assert len(line._echelon[min(line._echelon)]) > 1
    assert _agree(wigner_contract, _dense_wigner_contract,
                  ContractionInput(alg, gram, line)) == "ok"


def test_contractions_along_a_non_abelian_locus_keep_both_copy_brackets():
    """Along the first so(2,1) of so(2,1) + so(2,1), and along its image
    in a seeded rotation, [b_i, b_j~] and [b_j, b_i~] are both set."""
    so21 = _so21()
    half = _half_killing(so21)
    alg, metric = direct_sum(so21, so21), form_block_sum(half, half)
    rotated, gram, locus = _rotated(alg, metric, 0, (0, 1, 2))
    assert any(len(row) > 1 for row in locus._echelon.values())
    for inp in (ContractionInput(alg, metric, Subspace.coordinate(QQ, 6, [0, 1, 2])),
                ContractionInput(rotated, gram, locus)):
        assert _agree(wigner_contract, _dense_wigner_contract, inp) == "ok"
        out, form = wigner_contract(inp)
        assert out.check_jacobi() is None
        assert form.invariance_witness(out) is None
        assert form.is_nondegenerate()


def _change_of_basis(rng, field, d):
    """Pairs (u_a, l_a) and the columns v_a = u_a / l_a they stand for:
    the columns of a seeded unimodular P, divided by l_a in {1, 2, 3}."""
    p = _unimodular(rng, QQ, d)
    pairs, cols = [], []
    for a in range(d):
        w, l = [int(x) for x in p.col(a)], rng.choice((1, 2, 3))
        q = field.characteristic
        pairs.append(({c: x % q if q else x for c, x in enumerate(w) if field(x)}, l))
        cols.append(tuple(field(x) / field(l) for x in w))
    return pairs, cols


def test_rebase_matches_the_dense_change_of_basis():
    rng = random.Random(61)
    tables = [_so21()] + [truncated_algebra(n, field=field)
                          for field in (QQ, F5, F7) for n in (3, 6, 8)]
    for alg in tables:
        for _ in range(3):
            pairs, cols = _change_of_basis(rng, alg.field, alg.dim)
            found = LieAlgebra(alg.field, alg.dim, alg._rebase(pairs))
            assert _algebra_state(found) == _algebra_state(
                LieAlgebra(alg.field, alg.dim, _dense_rebase(alg, cols)))


def test_rebase_keeps_the_table_in_its_own_basis_and_refuses_non_bases():
    for alg in (_so21(), truncated_algebra(6), truncated_algebra(6, field=F5), JACOBI_FAILING):
        d = alg.dim
        identity = [({a: 1}, 1) for a in range(d)]
        assert {key: dict(terms) for key, terms in alg._rebase(identity).items()} == \
            {key: dict(terms) for key, terms in alg.sc.items()}
        assert alg._rebase(identity[:-1]) is None
        assert alg._rebase(identity + [({0: 1}, 1)]) is None
        assert alg._rebase(identity[:-1] + [({0: 1, 1: 1}, 2)]) is None


def test_double_extensions_match_the_dense_reference():
    outcomes = [_agree(double_extend, _dense_double_extend, inp)
                for inp in _double_extension_inputs()]
    assert outcomes == ["ok"] * len(outcomes)


def test_rejected_inputs_match_the_dense_reference():
    for inp in _rejected_double_extensions():
        assert _agree(double_extend, _dense_double_extend, inp) == "error"
    for inp in _rejected_contractions():
        assert _agree(wigner_contract, _dense_wigner_contract, inp) == "error"


def test_quotients_match_the_dense_reference():
    outcomes = [_agree(LieAlgebra.quotient, _dense_quotient, alg, j)
                for alg, j in _quotient_inputs()]
    assert (outcomes.count("ok"), outcomes.count("error")) == (90, 3)


def _random_subspaces(rng, alg):
    d, field = alg.dim, alg.field
    yield Subspace.zero(field, d)
    yield Subspace.full(field, d)
    for _ in range(6):
        yield Subspace(field, d, [[rng.randint(-2, 2) for _ in range(d)]
                                  for _ in range(rng.randint(1, d))])
    for size in range(1, d):
        yield Subspace.coordinate(field, d, rng.sample(range(d), size))
    yield from alg.derived_series() + alg.lower_central_series()


def test_is_subalgebra_matches_the_ordered_pair_check():
    rng = random.Random(29)
    tables = [JACOBI_FAILING, _so21(), truncated_algebra(6), truncated_algebra(6, field=F5)]
    tables += [_random_table(rng, field, rng.randint(2, 7), repeats)
               for field in (QQ, PrimeField(3)) for repeats in (False, True)
               for _ in range(6)]
    verdicts = []
    for alg in tables:
        for s in _random_subspaces(rng, alg):
            expected = _ordered_pair_is_subalgebra(alg, s)
            assert alg.is_subalgebra(s) == expected
            verdicts.append(expected)
    assert sum(1 for alg in tables if alg.check_jacobi() is not None) >= 5
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


def _adjoint_actions():
    """A3, A6 and so(2,1) acting on themselves by adjoint, over Q, F_5 and F_7."""
    for field in (QQ, F5, F7):
        for n in (3, 6):
            alg = truncated_algebra(n, field=field)
            yield _adjoint_input(alg, canonical_metric(n, field=field))
            yield _adjoint_input(alg, canonical_metric(n, 2, field), canonical_metric(n, 1, field))
        so21 = LieAlgebra(field, 3, {(0, 1): [(2, 1)], (1, 2): [(0, -1)], (0, 2): [(1, -1)]})
        yield _adjoint_input(so21, BilinearForm(
            so21.killing_form().matrix.scale(field.one / field(2))))


def _doubled_actions():
    """The adjoint actions of A3 and A6 with the action of one T_k doubled:
    still skew, and a representation only where ad T_k vanishes."""
    for field in (QQ, F5, F7):
        for n in (3, 6):
            alg = truncated_algebra(n, field=field)
            ads = [alg.adjoint(alg.basis_vector(i)) for i in range(alg.dim)]
            for k in range(alg.dim):
                action = ads[:k] + [ads[k].scale(2)] + ads[k + 1:]
                yield DoubleExtensionInput(alg.dim, canonical_metric(n, field=field), alg,
                                           tuple(action))


def test_adjoint_actions_match_the_dense_reference():
    outcomes = [_agree(double_extend, _dense_double_extend, inp) for inp in _adjoint_actions()]
    assert outcomes == ["ok"] * len(outcomes)


def test_non_representations_match_the_dense_reference():
    messages = []
    for inp in _doubled_actions():
        found = _outcome(double_extend, inp)
        assert found == _outcome(_dense_double_extend, inp)
        if found[0] == "error":
            messages.append(found[2])
    assert all(m.startswith("action is not a representation on the pair") for m in messages)
    assert len(messages) >= 20
    assert sum(1 for m in messages if not m.endswith("(0,1)")) >= 10
