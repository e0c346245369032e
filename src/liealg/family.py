"""The solvable graded family built from a hat map.

The family member of size n + 1 lives on basis T_0..T_n with bracket

    [T_i, T_j] = hat(i - j) T_{i+j}   if i + j <= n,  else 0.

With the balanced mod-3 hat this is a solvable algebra carrying the
grading deg(T_i) = i, a canonical invariant metric supported on the
reversed diagonal (plus an optional corner term), a completely
understood coordinate-ideal lattice (suffix ideals plus "skip" ideals),
and a shift automorphism T_i -> -T_{i + hat(i)}.  Other hat maps (the
identity map gives truncated Witt tables, ``ZModHat`` gives prime-field
variants) reuse the same constructor.

Everything here is exact; solvers return canonical objects from
``liealg.linalg`` so results compare bit-identically in tests.  The
single-diagonal solve scans integer combinations of its solution
space's kernel rows, not of dense scalar tuples, and builds its metric
over the weights' own field.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from .core import BilinearForm, LieAlgebra, _is_symmetric
from .fields import FpElement, PrimeField, QQ
from .hats import MOD3_BALANCED
from .linalg import Matrix, Subspace, _clear, _combine, _dense, _equations, nullspace

__all__ = [
    "truncated_algebra",
    "suffix_subspace",
    "skip_subspace",
    "canonical_metric",
    "DiagonalMetricResult",
    "single_diagonal_metric_solve",
    "enumerate_coordinate_ideals",
    "IdealClassification",
    "classify_ideals",
    "ClassificationMismatchError",
    "hat_shift_automorphism",
    "DEFAULT_BRUTE_CAP",
]

#: Default ceiling on 2^dim, the number of coordinate subsets (and so of
#: possible ideals) a coordinate-ideal enumeration may face: 2^16.
DEFAULT_BRUTE_CAP = 1 << 16


def truncated_algebra(n: int, hat=MOD3_BALANCED, field=None) -> LieAlgebra:
    """Family member on T_0..T_n for the given hat map.

    The bracket table is always constructed; whether it satisfies the
    Jacobi identity is a property of the hat map and is checked
    separately (``LieAlgebra.check_jacobi`` / ``jacobi_hat_scan``).
    The hat values are integers, so they are the integer table as they
    are (residues over F_p), on scale 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if field is None:
        field = hat.default_field()
    p = field.characteristic
    isc = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1 - i):
            c = hat.value(i - j) % p if p else hat.value(i - j)
            if c:
                isc[(i, j)] = ((i + j, c),)
    return LieAlgebra._of_cleared(field, n + 1, 1, isc,
                                  tuple(f"T{i}" for i in range(n + 1)), tuple(range(n + 1)))


def suffix_subspace(n: int, m: int, field=QQ) -> Subspace:
    """span{T_m..T_n} inside the (n+1)-dimensional member; m = n+1 is zero."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= m <= n + 1:
        raise ValueError(f"suffix start {m} out of range 0..{n + 1}")
    return Subspace.coordinate(field, n + 1, range(m, n + 1))


def skip_subspace(n: int, m: int, field=QQ) -> Subspace:
    """span{T_{m-2}} + span{T_m..T_n}; an ideal exactly when hat(m) = 0.

    m = n + 1 is allowed and gives the lone line span{T_{n-1}} (empty
    suffix part), which is an ideal exactly when hat(n + 1) = 0.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 2 <= m <= n + 1:
        raise ValueError(f"skip parameter {m} out of range 2..{n + 1}")
    return Subspace.coordinate(field, n + 1, [m - 2, *range(m, n + 1)])


def canonical_metric(n: int, b=0, field=QQ) -> BilinearForm:
    """(T_i, T_j) = [i + j = n] + b [i = 0][j = 0].

    Always constructible.  With the balanced mod-3 hat it is ad-invariant
    exactly when n mod 3 = 0, whatever b, and then non-degenerate except
    for n = 0 and b = -1, the zero 1 x 1 form.  Other hats give no such
    rule: hat(n) = 0 is not enough (zmod:5 at n = 5 fails invariance).
    Callers decide with the form's own checks (``invariance_witness``,
    ``is_nondegenerate``) rather than assume.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rows = [{n - i: field.one} for i in range(n + 1)]
    rows[0][0] = rows[0].get(0, field.zero) + field(b)
    return BilinearForm._of_cleared(field, *_clear(field, rows))


class DiagonalMetricResult(NamedTuple):
    """Outcome of the single-diagonal metric solve."""
    n: int
    exists: bool
    weights: tuple | None

    def form(self) -> BilinearForm:
        """The metric over the weights' own field: F_p for residues, else Q."""
        if not self.exists:
            raise ValueError("no single-diagonal invariant metric exists")
        n, w = self.n, self.weights[0]
        field = PrimeField(w.p) if isinstance(w, FpElement) else QQ
        scale, rows = _clear(field, [{n - i: field(self.weights[n - i])} for i in range(n + 1)])
        if not _is_symmetric(rows):
            raise ValueError("bilinear form matrix must be symmetric")
        return BilinearForm._of_cleared(field, scale, rows)


def single_diagonal_metric_solve(n: int, hat=MOD3_BALANCED) -> DiagonalMetricResult:
    """Decide whether an invariant metric supported on i + j = n exists.

    The ansatz (T_i, T_j) = w_j [i + j = n] is symmetric iff w_i = w_{n-i},
    and ad-invariance reduces to

        hat(k - i) w_j + hat(k - j) w_{n-i} = 0   for all i + j + k = n.

    The solver assembles exactly this linear system and asks for a
    solution with every weight nonzero (anything less is degenerate on
    the diagonal).  Returned weights are normalized to w_0 = 1.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    field = hat.default_field()
    rows = []
    for i in range(n + 1):
        # symmetry of the ansatz
        if i < n - i:
            rows.append({i: 1, n - i: -1})
        for j in range(n + 1 - i):
            k = n - i - j
            row = {j: hat.value(k - i)}
            row[n - i] = row.get(n - i, 0) + hat.value(k - j)
            rows.append(row)
    space = nullspace(_equations(field, n + 1, rows))
    weights = _all_nonzero_element(space, field)
    if weights is None:
        return DiagonalMetricResult(n, False, None)
    w0 = weights[0]
    return DiagonalMetricResult(n, True, tuple(w / w0 for w in weights))


def _all_nonzero_element(space: Subspace, field):
    """A vector in the space with every coordinate nonzero, or None.

    Coordinates are linear functionals on the space, so if none of them
    vanishes identically (every column is touched by a kernel row) a
    combination sum(t^a v_a) of the basis vectors v_a = u_a / lead_a
    avoids all of them for some small t (each coordinate is a nonzero
    polynomial of degree < dim in t).  Over Q the scan is therefore
    complete.  It runs on the integer kernel rows u_a: with l the lcm of
    the leads, sum(t^a (l / lead_a) u_a) is l times that combination,
    converted once; over F_p every lead is 1 and t stops below p.  A
    kernel row has no entry in another pivot column, so a basis vector
    with no zero coordinate exists only at dim 1, where t = 1 returns it.
    """
    d, p, rows = space.ambient_dim, field.characteristic, space._echelon
    if not rows or len(set().union(*rows.values())) < d:
        return None
    bound = (len(rows) - 1) * d + 1
    l = lcm(*(u[q] for q, u in rows.items()))
    for t in range(1, (min(bound, p - 1) if p else bound) + 1):
        v = _combine(((t ** a * (l // u[q]), u.items()) for a, (q, u) in enumerate(rows.items())), p)
        if len(v) == d:
            return _dense(field, v, d, l)
    return None


def enumerate_coordinate_ideals(alg: LieAlgebra,
                                max_subsets: int = DEFAULT_BRUTE_CAP) -> list[Subspace]:
    """All coordinate subspaces that are ideals.

    Subsets are encoded as bitmasks.  A subset C is an ideal iff the
    support of [T_i, T_j] lands inside C for every j in C and every i,
    i.e. iff need[j] & ~C = 0 for every j in C, with need[j] the union of
    the supports of the stored brackets that touch j.  The ideals are
    therefore the closed sets of the relation j -> need[j], and every
    one is a union of the closures close[j] (the least closed set that
    holds j).  The walk decides the indices in order, including j (its
    whole closure joins C, which must miss every index excluded so far)
    or excluding it; each branch reaches at least one leaf and the
    leaves are distinct ideals, so the cost is O((#ideals + 1) * dim)
    mask operations rather than one test per subset.

    ``max_subsets`` bounds 2^dim, the number of coordinate subsets and so
    of possible ideals, not the subsets visited: a larger dimension
    raises ``ValueError`` before any work.  Results are sorted by
    dimension, then lexicographically on the index tuple.
    """
    d = alg.dim
    if 1 << d > max_subsets:
        raise ValueError(
            f"2^{d} subsets exceed the enumeration cap {max_subsets}")
    need = [0] * d
    for (i, j), terms in alg._isc.items():
        for k, _ in terms:
            need[i] |= 1 << k
            need[j] |= 1 << k
    close = []
    for j in range(d):
        c = todo = 1 << j
        while todo:
            low = todo & -todo
            todo ^= low
            new = need[low.bit_length() - 1] & ~c
            c |= new
            todo |= new
        close.append(c)
    found = []
    stack = [(0, 0, 0)]  # (next index, C, excluded indices)
    while stack:
        j, c, excluded = stack.pop()
        while j < d and c >> j & 1:
            j += 1
        if j == d:
            found.append(c)
            continue
        stack.append((j + 1, c, excluded | 1 << j))
        if not close[j] & excluded:
            stack.append((j + 1, c | close[j], excluded))
    subsets = [tuple(i for i in range(d) if c >> i & 1) for c in found]
    subsets.sort(key=lambda s: (len(s), s))
    return [Subspace.coordinate(alg.field, d, s) for s in subsets]


class ClassificationMismatchError(RuntimeError):
    """Closed-form ideal list disagreed with the coordinate-ideal enumeration."""


class IdealClassification(NamedTuple):
    """Coordinate ideals of a family member, in closed form.

    suffix_ideals lists every m with span{T_m..T_n} an ideal (always
    all of 0..n+1); skip_ideals lists the m with hat(m) = 0 whose
    span{T_{m-2}} + span{T_m..T_n} is an ideal.
    """
    n: int
    suffix_ideals: tuple[int, ...]
    skip_ideals: tuple[int, ...]

    def subspaces(self, field=QQ) -> list[Subspace]:
        out = [suffix_subspace(self.n, m, field) for m in self.suffix_ideals]
        out += [skip_subspace(self.n, m, field) for m in self.skip_ideals]
        return out


def classify_ideals(n: int, hat=MOD3_BALANCED,
                    cross_check: bool = True) -> IdealClassification:
    """Closed-form coordinate-ideal list, cross-checked by enumeration.

    The closed form holds for the balanced mod-3 hat (and any hat with
    the same zero pattern): suffix spans for every m, plus a skip ideal
    for each m in 2..n+1 with hat(m) = 0, where m = n+1 contributes the
    degenerate skip span{T_{n-1}} (only when hat(n+1) = 0, i.e. for
    n = 2 mod 3).  With ``cross_check`` the list is verified against
    ``enumerate_coordinate_ideals`` at every n (the cap is lifted to the
    member's 2^(n+1) subsets; the enumeration's cost follows the number
    of ideals, about 4n/3 where the closed form holds, but up to
    2^(n+1) for a hat that vanishes almost everywhere) and a mismatch
    raises ``ClassificationMismatchError``.  A negative n names no
    member and raises ``ValueError``, with or without ``cross_check``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    suffix = tuple(range(0, n + 2))
    skip = tuple(m for m in range(2, n + 2) if hat.value(m) == 0)
    result = IdealClassification(n, suffix, skip)
    if cross_check:
        field = hat.default_field()
        alg = truncated_algebra(n, hat, field)
        found = enumerate_coordinate_ideals(alg, max_subsets=1 << (n + 1))
        claimed = result.subspaces(field)
        if set(found) != set(claimed) or len(claimed) != len(set(claimed)):
            raise ClassificationMismatchError(
                f"classification mismatch at n={n}: the enumeration found "
                f"{len(found)} ideals, closed form lists {len(claimed)}")
    return result


def hat_shift_automorphism(n: int, field=QQ) -> Matrix | None:
    """The map T_i -> -T_{i + hat(i)} when defined, as a column matrix.

    For hat(n) = 1 the image of T_n would leave the algebra, so there
    is no such map and None is returned.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    hat = MOD3_BALANCED
    if hat.value(n) == 1:
        return None
    zero, one = field.zero, field.one
    grid = [[zero] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        grid[i + hat.value(i)][i] = -one
    return Matrix(field, grid)
