"""Finite-dimensional Lie algebras given by structure constants.

A ``LieAlgebra`` stores a sparse bracket table c_{ij}^k for i < j only;
antisymmetry is implied by the storage and [x_i, x_i] = 0 structurally.
The Jacobi identity is *not* assumed at construction: it is a property
one checks (``check_jacobi``), because part of the point of this library
is studying tables for which it fails.

A ``LieAlgebra`` has one state, its integer table (``_scale`` L,
``_isc``): the structure constants times L, the lcm of their reduced
denominators, over Q, and their residues (L = 1) over F_p.
``__init__`` coerces and merges the given scalars and clears them;
the file loader and the family constructor build the integer table
directly (``_of_cleared``).  Both set the state through
``linalg._Immutable._set``, which leaves every other slot None.
``sc``, the table in field scalars, is a read-only view
(``_Immutable._memo``): kept from ``__init__``, converted on its first
read otherwise.  A ``BilinearForm`` and its ``matrix`` view follow the
same pattern.  The package has two value idioms: the four structured
values (``LieAlgebra``, ``BilinearForm``, ``Matrix``, ``Subspace``) are
``_Immutable``, and every record (a witness, a verdict, a
construction's input) is a ``typing.NamedTuple``.

All derived computations (Killing form, series, center, quotients,
derivations) reduce to exact linear algebra from ``liealg.linalg``,
and read the integer table, not ``sc``; the solvers read it as sparse
rows of the nonzero brackets (``_int_table``).  The Jacobi and Killing
sums are quadratic in the constants, so their values are divided by
L^2; the invariance sums are bilinear in the table and in a form
cleared by its own lcm M, so they carry L * M, and only their zero test
is used.  Homogeneous systems (invariant forms, center, derivations)
and spans do not depend on the scale and take the integers as they
are.  A ``BilinearForm`` is its integer rows,
cleared once where it enters; the Killing form, block forms and
restrictions are rows, and its determinant is that of the rows.  The
adjoint matrix and the isomorphism test take the integer bracket of
rows cleared once, and a form applied to vectors, a map applied to a
bracket or the Gram matrix of a subspace is a combination of integer
rows (``linalg._combine``).  The table in another basis comes from one
elimination of the new basis rows, each tagged with its own column
(``_rebase``); a quotient is such a change of basis, to the kept unit
vectors and then the ideal's kernel rows, in which only the pairs of
kept vectors are bracketed and the ideal's part of each bracket is
dropped.

The two identity checks, ``check_jacobi`` and ``invariance_witness``,
return the lexicographically first failing basis triple.  They visit
only nonzero bracket paths, rather than all index triples: a
bracket-free algebra is checked in time linear in its dimension.  These
two scans and the Killing form sum a whole coordinate vector as one
integer (Kronecker substitution): a vector of integers d_m is packed as
sum d_m 2^(w m), and one multiply-add of packed integers adds every
coordinate at once.  The width w is taken from the input, above a bound
on every digit of the sums (3 dim C^2 for Jacobi, 2 dim C G for
invariance, dim^2 C^2 for Killing, with C the largest integer constant
and G the largest entry of the cleared form), so the digits never carry
into each other: a packed sum is 0 exactly when each of its digits is,
and its balanced base-2^w digits (``_digits``) are the sums themselves,
read off only for a witness, a Killing row, or over F_p, where each
digit is tested mod p.  A packed vector is as long as its highest
coordinate, up to about dim w bits, so the cost is the number of paths
times that length: on a high-dimensional table of one-term brackets a
path costs O(dim w) bits, not one term.

When the table satisfies Jacobi, ad_[x,y] = [ad_x, ad_y], so the x for
which ad_x meets a linear condition of the solvers often form a
subalgebra: the x with ad_x skew for a form, the x commuting with a
given vector, the x on which a map's derivation defect vanishes, the x
with [x, J] in J for a subspace J, for an ideal C the x with [x, C] in
span [S, C], and for a map phi the x with phi[x, y] = [phi x, phi y]
for all y.  Invariant forms, the center, derivations, the ideal test,
the lower central series and the isomorphism test therefore ask their
conditions of x in a Lie generating set S of basis vectors only
(``_generators``, picked greedily; T0, T1, T2 on the family's
members).  A table that fails Jacobi gets the full basis as S, and the
isomorphism test takes the full basis when either table fails it, so
the answers stay those of the definitions.

The generating set, [L, L] (the span of the stored brackets) and the
center are computed once per algebra and kept beside the table
(``_Immutable._memo``): the derived and lower central series start from
the one [L, L], and the center serves ``analyze``, the derivations and
the self-duality search alike.  A pickled algebra starts without them.

Invariant forms go one step further.  A symmetric invariant form is a
module map L -> L*, so it is fixed by its values on generators M of L
as an ad_S-module.  ``_module_closure`` picks M greedily (the one root
T0 on the family's members) and writes every basis vector in words
L [x_s, v], one tagged elimination; the form solver's unknowns are the
B(e_m, .) for m in M, not all dim (dim + 1) / 2 entries.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import combinations
from math import gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .fields import FieldMismatchError
from .linalg import (Matrix, ShapeError, Subspace, _clear, _combine, _dense, _dot,
                     _echelon, _equations, _Immutable, _insert, _reduce, _require_same_field,
                     _Rows, _scalars, _sparse, det, nullspace)

__all__ = [
    "LieAlgebra",
    "BilinearForm",
    "JacobiWitness",
    "DerivationSpace",
    "NotAnIdealError",
    "form_block_sum",
    "direct_sum",
]


class NotAnIdealError(ValueError):
    """Raised when a quotient is requested by a non-ideal."""


class JacobiWitness(NamedTuple):
    """A basis triple where the Jacobi identity fails, with the defect."""
    i: int
    j: int
    k: int
    defect: tuple


class _Closure(NamedTuple):
    """The words of ``LieAlgebra._module_closure``: ``ad`` {s: {j: L [x_s,
    x_j] as (k, int) pairs}} for the acting generators, ``words`` the
    integer rows v_t, ``recipes`` (s, t0) for v_t = L [x_s, v_t0] or
    (None, k) for v_t = e_k, ``relations`` (s, t0, m, {t: r_t}) for
    m L [x_s, v_t0] + sum_t r_t v_t = 0, ``tags`` {q: row} with
    row[q] e_q = sum_t row[dim + t] v_t."""
    ad: dict
    words: list
    recipes: list
    relations: list
    tags: dict


class DerivationSpace(NamedTuple):
    """Derivations of an algebra, flattened row-major into dim^2 space."""
    space: Subspace
    inner_dim: int
    outer_dim: int


class LieAlgebra(_Immutable):
    """An algebra on basis x_0..x_{dim-1} with sparse bracket table.

    The algebra is its integer table (``_scale``, ``_isc``), set by
    ``_set``; ``sc``, the table in field scalars, is a read-only view,
    kept from ``__init__`` or converted on its first read (``_memo``)
    from a table given to ``_of_cleared``.  The generating set, [L, L]
    and the center are computed once per algebra (``_memo``) and kept
    in the slots beside the table.
    """

    __slots__ = ("field", "dim", "labels", "grading", "_scale", "_isc", "_sc",
                 "_gens", "_derived", "_center")

    def __init__(self, field, dim: int,
                 brackets: Mapping[tuple[int, int], object],
                 labels: Sequence[str] | None = None,
                 grading: Sequence[int] | None = None):
        """brackets maps (i, j) with i < j to {k: coeff} or [(k, coeff)]."""
        sc: dict[tuple[int, int], tuple] = {}
        for (i, j), terms in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            if isinstance(terms, Mapping):
                terms = terms.items()
            merged: dict = {}
            for k, c in terms:
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target index {k} out of range")
                c = field(c)
                merged[k] = merged[k] + c if k in merged else c
            clean = tuple((k, c) for k, c in sorted(merged.items()) if c)
            if clean:
                sc[(i, j)] = clean
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("labels length mismatch")
        if grading is not None:
            grading = tuple(int(g) for g in grading)
            if len(grading) != dim:
                raise ValueError("grading length mismatch")
        scale, rows = _clear(field, [dict(terms) for terms in sc.values()])
        self._set(field=field, dim=dim, labels=labels, grading=grading, _scale=scale,
                  _isc={key: tuple(r.items()) for key, r in zip(sc, rows)},
                  _sc=MappingProxyType(sc))

    @classmethod
    def _of_cleared(cls, field, dim: int, scale: int, isc: dict,
                    labels: tuple | None, grading: tuple | None) -> "LieAlgebra":
        """The algebra of the integer table ``isc``, {(i, j): ((k, int), ...)}
        with 0 <= i < j < dim, each k in range, ascending and with a nonzero
        entry (a residue in [0, p) over F_p), over the canonical ``scale``:
        the lcm of the reduced denominators, so that its gcd with the
        entries is 1 (1 over F_p).  Labels and grading are tuples of dim
        entries or None.  Nothing is coerced or re-checked."""
        return object.__new__(cls)._set(field=field, dim=dim, labels=labels,
                                        grading=grading, _scale=scale, _isc=isc)

    def __reduce__(self):
        return self._of_cleared, (self.field, self.dim, self._scale, self._isc,
                                  self.labels, self.grading)

    @property
    def sc(self) -> Mapping:
        """The table {(i, j): ((k, c), ...)}, i < j, in field scalars, as a
        read-only mapping."""
        conv = _scalars(self.field, self._scale)
        return self._memo("_sc", lambda: MappingProxyType({
            key: tuple((k, conv(c)) for k, c in terms) for key, terms in self._isc.items()}))

    def __eq__(self, other):
        # both constructors give the canonical scale, so equal tables have
        # equal integer tables
        return (isinstance(other, LieAlgebra)
                and self.field == other.field and self.dim == other.dim
                and self._scale == other._scale and self._isc == other._isc
                and self.labels == other.labels and self.grading == other.grading)

    def __hash__(self):
        return hash((self.field, self.dim, self._scale, tuple(sorted(self._isc.items()))))

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim} over {self.field}, {len(self._isc)} stored brackets)"

    # -- brackets ----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> tuple:
        """[x_i, x_j] as a tuple of (k, coeff), antisymmetry applied."""
        if i == j:
            return ()
        if i < j:
            return self.sc.get((i, j), ())
        return tuple((k, -c) for k, c in self.sc.get((j, i), ()))

    def structure_constant(self, i: int, j: int, k: int):
        for l, c in self.bracket_basis(i, j):
            if l == k:
                return c
        return self.field.zero

    def _coerce_vector(self, x: Sequence) -> tuple:
        vec = tuple(self.field(v) for v in x)
        if len(vec) != self.dim:
            raise ShapeError(f"vector of length {len(vec)}, expected {self.dim}")
        return vec

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """[x, y] for coordinate vectors x, y."""
        sx, (xs,) = _clear(self.field, [_sparse(self._coerce_vector(x))])
        sy, (ys,) = _clear(self.field, [_sparse(self._coerce_vector(y))])
        return _dense(self.field, self._bracket(xs, ys), self.dim, self._scale * sx * sy)

    def _bracket(self, x: dict, y: dict) -> dict:
        """L [x, y] for kernel rows x, y ({index: int}), L = ``_scale``,
        without zero entries (residues over F_p)."""
        isc = self._isc
        out: dict = {}
        for i, xi in x.items():
            for j, yj in y.items():
                # (i, i) is never stored; [x_i, x_j] = -[x_j, x_i] for i > j
                terms = isc.get((i, j) if i < j else (j, i))
                if terms:
                    f = xi * yj if i < j else -(xi * yj)
                    for k, c in terms:
                        out[k] = out.get(k, 0) + f * c
        p = self.field.characteristic
        if p:
            return {k: c % p for k, c in out.items() if c % p}
        return {k: c for k, c in out.items() if c}

    def basis_vector(self, i: int) -> tuple:
        zero, one = self.field.zero, self.field.one
        return tuple(one if j == i else zero for j in range(self.dim))

    def _int_table(self) -> list[dict]:
        """table[i] = {j: L [x_i, x_j] as (k, int) pairs} over the nonzero
        brackets only, L = ``_scale``, antisymmetry applied; read once per
        call.  Columns come in descending order."""
        table: list[dict] = [{} for _ in range(self.dim)]
        # keys in descending order put every (b, c), b < c, before (a, b)
        for (i, j), terms in sorted(self._isc.items(), reverse=True):
            table[i][j] = terms
            table[j][i] = tuple((k, -c) for k, c in terms)
        return table

    def adjoint(self, x: Sequence) -> Matrix:
        """Matrix of y |-> [x, y]; column j is [x, x_j], the integer
        bracket of x (cleared once, scale s) with x_j over L s."""
        s, (xs,) = _clear(self.field, [_sparse(self._coerce_vector(x))])
        cols = [_dense(self.field, self._bracket(xs, {j: 1}), self.dim, self._scale * s)
                for j in range(self.dim)]
        return Matrix._of_scalars(self.field, tuple(zip(*cols)))

    # -- identities --------------------------------------------------------

    def check_jacobi(self) -> JacobiWitness | None:
        """First (lexicographic) basis triple violating Jacobi, if any.

        The witness is the least i < j < k, in ``itertools.combinations``
        order, whose cyclic sum [[x_i,x_j],x_k] + [[x_j,x_k],x_i] +
        [[x_k,x_i],x_j] is nonzero; the defect is that sum's coordinate
        vector.  Only nonzero bracket paths are visited: each stored
        [x_a, x_b] with a term c1 x_l and each nonzero [x_l, x_c], c not a
        or b, add c1 [x_l, x_c] to the sorted triple of a, b, c, with a
        minus sign when a < c < b.  So the cost follows the number of such
        paths, not C(dim, 3).  The paths are taken one leading index at a
        time, and the scan stops after the first index with a failing
        triple.

        Each stored bracket of the integer table is one packed integer,
        sum_m L c_m 2^(w m) for its terms c_m x_m, so a path adds a whole
        vector with one multiply-add.  A digit of a packed cyclic sum is
        at most 3 dim C^2 in absolute value, C the largest integer
        constant, and the width w is taken above that bound (``_width``):
        the packed sum is 0 exactly when the cyclic sum is, and over F_p
        its digits are read off and tested mod p.  The least failing
        (j, k) of the first failing i gives the witness; its decoded
        digits (``_digits``) are L^2 times the defect.  A path costs the
        length of the packed vector, up to about dim w bits, not one
        term.
        """
        p, d, isc = self.field.characteristic, self.dim, self._isc
        w = _width(3 * d * self._largest_constant() ** 2)
        # table[a]: {b: L [x_a, x_b] packed}, b descending; producers[l]:
        # (key of (a, b), a, -c) for each stored [x_a, x_b] with a term c x_l,
        # a descending, so the pairs with a > i come first
        table: list[dict] = [{} for _ in range(d)]
        producers: list[list] = [[] for _ in range(d)]
        # keys in descending order put every (b, c), b < c, before (a, b)
        for (a, b), terms in sorted(isc.items(), reverse=True):
            v, key = 0, a * d + b
            for l, c in terms:
                v += c << w * l
                producers[l].append((key, a, -c))
            table[a][b] = v
            table[b][a] = -v
        for i, row in enumerate(table):
            if not row:
                continue
            acc: dict = {}  # acc[j * d + k]: the cyclic sum of (i, j, k), packed
            for j in row:
                if j < i:
                    break
                # [[x_i, x_j], x_k] is a term of (i, j, k) for k > j; for
                # i < k < j its negative [[x_j, x_i], x_k] is a term of (i, k, j)
                for l, c1 in isc[i, j]:
                    for k, v in table[l].items():
                        if k <= i:
                            break
                        if k > j:
                            key = j * d + k
                            acc[key] = acc.get(key, 0) + c1 * v
                        elif k < j:
                            key = k * d + j
                            acc[key] = acc.get(key, 0) - c1 * v
            # [[x_a, x_b], x_i] = -sum c [x_i, x_l] is a term of (i, a, b), i < a
            for l, v in row.items():
                for key, a, f in producers[l]:
                    if a <= i:
                        break
                    acc[key] = acc.get(key, 0) + f * v
            failing = [key for key, v in acc.items()
                       if v and (not p or any(x % p for x in _digits(v, w).values()))]
            if failing:
                j, k = divmod(min(failing), d)
                return JacobiWitness(i, j, k, _dense(
                    self.field, _digits(acc[j * d + k], w), d, self._scale ** 2))
        return None

    def is_abelian(self) -> bool:
        return not self._isc

    def killing_form(self) -> "BilinearForm":
        """K(x_i, x_j) = trace(ad x_i . ad x_j) = sum over k, l of
        c_ik^l c_jl^k, summed in integers over the integer table; the form
        is those rows over L^2.

        Row i of L^2 K is one packed integer, digit j the entry: with
        Q[l][k] = sum_j L c_jl^k 2^(w j) (``_acting``), it is the sum of
        L c_ik^l Q[l][k] over the nonzero constants of ad x_i, a join of
        the table with itself over matching (l, k).  An entry is at most
        dim^2 C^2 in absolute value, C the largest integer constant, and
        the width w is taken above that bound (``_width``), so the decoded
        nonzero digits (``_digits``) are the row's entries exactly.
        """
        d, isc = self.dim, self._isc
        w = _width((d * self._largest_constant()) ** 2)
        q = _acting(isc, w)
        packed = [0] * d
        for (a, b), terms in isc.items():
            # c_ab^l = c and c_ba^l = -c
            for l, c in terms:
                ql = q.get(l)
                if ql:
                    if b in ql:
                        packed[a] += c * ql[b]
                    if a in ql:
                        packed[b] -= c * ql[a]
        return BilinearForm._of_cleared(self.field, self._scale ** 2,
                                        [_digits(r, w) if r else {} for r in packed])

    def _largest_constant(self) -> int:
        """C, the largest constant of the integer table in absolute value."""
        return max((abs(c) for terms in self._isc.values() for _, c in terms), default=0)

    # -- a generating set ----------------------------------------------------

    def _generators(self) -> tuple[int, ...]:
        """Basis indices of a Lie generating set S, picked greedily.

        x_k joins S when it is not in the subalgebra that the earlier
        picks generate.  By Jacobi that subalgebra is the least subspace
        holding the picks and closed under ad_s for every pick s, so the
        closure brackets each new vector with the picks only; a pick
        with ad = 0 (an empty table row) brackets nothing.  A table that
        fails Jacobi gets the full basis: every reduction to S rests on
        ad_[x,y] = [ad_x, ad_y].  Computed once per algebra.
        """
        return self._memo("_gens", lambda: tuple(range(self.dim))
                          if self.check_jacobi() is not None else self._greedy_generators())

    def _greedy_generators(self) -> tuple[int, ...]:
        p = self.field.characteristic
        acting = {i for key in self._isc for i in key}  # the x_i with ad x_i != 0
        span: dict = {}  # the kernel echelon of the subalgebra generated so far
        cols: set = set()
        closed: list[dict] = []  # spanning rows, each bracketed with every acting pick
        gens: list[int] = []
        active: list[int] = []
        for k in range(self.dim):
            probe = {k: 1}
            _reduce(span, probe, p)
            if not probe:
                continue
            gens.append(k)
            if k not in acting:
                _insert(span, {k: 1}, p, cols)
                continue
            active.append(k)
            pending = [{k: 1}] + [self._bracket({k: 1}, v) for v in closed]
            while pending:
                v = pending.pop()
                if _insert(span, v, p, cols) is not None:
                    v = dict(v)  # the stored row changes as later pivots come in
                    closed.append(v)
                    pending.extend(self._bracket({s: 1}, v) for s in active)
        return tuple(gens)

    def _module_closure(self) -> "_Closure":
        """A basis of words that writes the algebra as the ad_S-module
        generated by basis vectors M, S = ``_generators()``.

        e_k joins M (a root word, recipe (None, k)) when it is not in
        the ad_S-closed span of the earlier words; those words are
        then closed breadth first, each bracketed once with every x_s
        whose ad_s is nonzero.  A bracket L [x_s, v_t0] (L the table's
        scale) is reduced against one echelon of the rows (v_t, e_{dim+t}),
        a tag column per word (as in ``_rebase``).  When an original
        column is left it becomes the word v_t = L [x_s, v_t0], recipe
        (s, t0), and its reduced row goes in with m at its own tag (m
        from ``_reduce``: the row is m times the exact reduction).
        Otherwise the tags of the reduced row r give the relation
        m L [x_s, v_t0] + sum_t r_t v_t = 0, kept as (s, t0, m, {t: r_t}).
        Every e_k is in the span at its turn, so the words are a basis
        and the echelon has one row per original column q: lead_q e_q
        plus the tags that write lead_q e_q in the words.  Returns the
        acting rows of the integer table (``_int_table``), the words,
        their recipes, the relations and that echelon.
        """
        d, p = self.dim, self.field.characteristic
        table = self._int_table()
        ad = {s: table[s] for s in self._generators() if table[s]}
        words: list[dict] = []
        recipes: list[tuple] = []
        relations: list[tuple] = []
        tagged: dict = {}
        cols: set = set()
        done = 0

        def put(word, recipe, row, m):
            row[d + len(words)] = m
            words.append(word)
            recipes.append(recipe)
            _insert(tagged, row, p, cols)

        for k in range(d):
            row = {k: 1}
            m = _reduce(tagged, row, p)
            if min(row) >= d:
                continue
            put({k: 1}, (None, k), row, m)
            while done < len(words):
                v = words[done]
                for s, rows in ad.items():
                    word = _combine(((x, rows.get(j, ())) for j, x in v.items()), p)
                    row = dict(word)
                    m = _reduce(tagged, row, p)
                    if min(row, default=d) < d:
                        put(word, (s, done), row, m)
                    else:
                        relations.append((s, done, m, {c - d: x for c, x in row.items()}))
                done += 1
        return _Closure(ad, words, recipes, relations, tagged)

    # -- subspaces and series ------------------------------------------------

    def _derived_span(self, s: Subspace) -> Subspace:
        """[s, s] from integer brackets of the kernel rows of s, each
        unordered pair once: [u, u] = 0 and [v, u] = -[u, v]."""
        return Subspace._span(self.field, self.dim, (
            self._bracket(u, v) for u, v in combinations(s._echelon.values(), 2)))

    def _derived_algebra(self) -> Subspace:
        """[L, L], the span of the stored brackets, with or without
        Jacobi.  Computed once per algebra."""
        return self._memo("_derived", lambda: Subspace._span(
            self.field, self.dim, map(dict, self._isc.values())))

    def _series(self, step: Callable[[Subspace], Subspace]) -> list[Subspace]:
        """L, [L, L], step([L, L]), ... listed until stable."""
        series = [Subspace.full(self.field, self.dim)]
        nxt = self._derived_algebra()
        while nxt != series[-1]:
            series.append(nxt)
            nxt = step(nxt)
        return series

    def derived_series(self) -> list[Subspace]:
        """D0 = L, D_{k+1} = [D_k, D_k], listed until stable."""
        return self._series(self._derived_span)

    def lower_central_series(self) -> list[Subspace]:
        """C0 = L, C_{k+1} = [L, C_k], listed until stable; C1 = D1 = [L, L].

        For k >= 1, [L, C] is spanned by [x_s, C] for s in the generating
        set S: C is an ideal, so by Jacobi the x with [x, C] in span [S, C]
        form a subalgebra, which holds S.  A table that fails Jacobi has
        the whole basis as S.
        """
        gens = self._generators()
        return self._series(lambda c: Subspace._span(self.field, self.dim, (
            self._bracket({s: 1}, v) for s in gens for v in c._echelon.values())))

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].is_zero()

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].is_zero()

    def center(self) -> Subspace:
        """{x : [x_s, x] = 0 for s in the generating set}: sum_j c_{sj}^k
        x_j = 0 for all k.  The centraliser of x is a subalgebra, so x
        is central once it commutes with a generating set.  Computed once
        per algebra."""
        def solve():
            table, eqs = self._int_table(), {}  # eqs[s, k]: [x_s, x] at e_k
            for s in self._generators():
                for j, terms in table[s].items():
                    for k, c in terms:
                        eqs.setdefault((s, k), {})[j] = c
            return nullspace(_equations(self.field, self.dim, eqs.values()))
        return self._memo("_center", solve)

    def is_ideal(self, s: Subspace) -> bool:
        """Whether [x_g, s] lies in s for g in the generating set: the
        normaliser {x : [x, s] in s} is a subalgebra."""
        self._check_subspace(s)
        return all(s._contains_row(self._bracket({g: 1}, v))
                   for g in self._generators() for v in s._echelon.values())

    def is_subalgebra(self, s: Subspace) -> bool:
        self._check_subspace(s)
        # by how the table is stored, [u, u] = 0 and [v, u] = -[u, v]
        return all(s._contains_row(self._bracket(u, v))
                   for u, v in combinations(s._echelon.values(), 2))

    def _check_subspace(self, s: Subspace):
        if s.ambient_dim != self.dim:
            raise ShapeError("subspace ambient dimension mismatch")
        if s.field != self.field:
            raise FieldMismatchError("subspace over a different field")

    def quotient(self, j: Subspace) -> "LieAlgebra":
        """Quotient by an ideal, on the non-pivot coordinates of its basis.

        It is a change of basis (``_rebase``): the kept unit vectors first,
        then the ideal's kernel rows.  The bracket of two kept vectors,
        less its part in the ideal, is its bracket in the quotient."""
        if not self.is_ideal(j):
            raise NotAnIdealError("quotient requires an ideal")
        echelon = j._echelon
        kept = [c for c in range(self.dim) if c not in echelon]
        r = len(kept)
        rebased = self._rebase([({c: 1}, 1) for c in kept]
                               + [(u, u[q]) for q, u in echelon.items()], r)
        brackets = {key: [(c, x) for c, x in terms if c < r] for key, terms in rebased.items()}
        labels = tuple(self.labels[c] for c in kept) if self.labels else None
        grading = None
        if self.grading is not None and all(len(row) == 1 for row in echelon.values()):
            grading = tuple(self.grading[c] for c in kept)
        return LieAlgebra(self.field, len(kept), brackets,
                          labels=labels, grading=grading)

    def _rebase(self, basis: Sequence[tuple[dict, int]], lead: int | None = None) -> dict | None:
        """The table in the basis v_a = u_a / l_a, from pairs (u_a, l_a) of a
        kernel row and a positive integer (a unit mod p over F_p): {(a, b):
        [(c, x), ...]} with [v_a, v_b] = sum_c x v_c, for the a < b with a
        nonzero bracket, as ``__init__`` takes it; with ``lead``, only for
        the pairs of the first ``lead`` vectors, b < lead.  None unless
        the v_a are a basis.

        The rows (u_a, l_a e_{dim+a}), a tag column per v_a, are eliminated
        once.  The v_a are a basis exactly when there are dim of them and
        every pivot is an original column; the echelon then writes each
        e_q in the u_a through its tags.  Reducing L [u_a, u_b] (L the
        table's scale) against it gives m times the exact reduction (m
        from ``_reduce``): zero in every original column, and -m L l_a l_b
        times the coordinates of [v_a, v_b] in the tags.
        """
        d, p = self.dim, self.field.characteristic
        tagged = _echelon(({**u, d + a: l} for a, (u, l) in enumerate(basis)), p)
        if len(basis) != d or any(q >= d for q in tagged):
            return None
        brackets = {}
        for (a, (u, lu)), (b, (v, lv)) in combinations(enumerate(basis[:lead]), 2):
            row = self._bracket(u, v)
            if row:
                conv = _scalars(self.field, -_reduce(tagged, row, p) * self._scale * lu * lv)
                brackets[(a, b)] = [(c - d, conv(x)) for c, x in row.items()]
        return brackets

    # -- maps ---------------------------------------------------------------

    def is_isomorphism(self, other: "LieAlgebra", phi: Matrix) -> bool:
        """phi invertible with phi[x,y] = [phi x, phi y] for all x, y, the
        bracket on the right that of ``other``.

        Columns of phi are the images of this basis, written in other's
        basis.  They are cleared to integers once (scale c, residues over
        F_p), so the integer rows of phi^T decide invertibility.  With L
        and L' the two tables' scales and g their gcd, c^2 L (L'/g)
        phi[x_s, x_j] is the combination of the columns with the
        coefficients c L'/g times this integer table (``_combine``), to
        compare with L' [c phi x_s, (L/g) c phi x_j], the integer bracket
        of ``other``.

        The identity is asked of x_s for s in this table's generating set
        S only (``_generators``).  If it holds for x and x' and all y, then
        Jacobi in the source, the identity, and Jacobi in the target
        give phi[[x,x'],y] = [phi x,[phi x',phi y]] - [phi x',[phi x,phi
        y]] = [phi[x,x'], phi y]: the x for which it holds form a
        subalgebra, which holds S and so is everything.  When either
        table fails Jacobi, S is the full basis.
        """
        if phi.field != self.field or other.field != self.field:
            raise FieldMismatchError("map over a different field")
        if not (phi.is_square() and phi.nrows == self.dim == other.dim):
            raise ShapeError("map dimension mismatch")
        c, cols = _clear(self.field, map(_sparse, zip(*phi.rows)))
        g = gcd(self._scale, other._scale)
        f, scaled = c * (other._scale // g), self._scale // g
        targets = [{k: scaled * x for k, x in col.items()} for col in cols]
        gens = self._generators() if other is self or other.check_jacobi() is None \
            else range(self.dim)
        p, table = self.field.characteristic, self._int_table()
        return det(_Rows(self.field, self.dim, cols)) != self.field.zero and all(
            _combine(((f * x, cols[k].items()) for k, x in table[s].get(j, ())), p)
            == other._bracket(cols[s], targets[j])
            for s in gens for j in range(self.dim))

    def is_automorphism(self, phi: Matrix) -> bool:
        """phi invertible with phi[x,y] = [phi x, phi y] for all x, y: an
        isomorphism of this table onto itself (``is_isomorphism``)."""
        return self.is_isomorphism(self, phi)

    def derivation_space(self) -> DerivationSpace:
        """Solve D[x_i,x_j] = [Dx_i,x_j] + [x_i,Dx_j] for x_i in the
        generating set and every x_j: the x on which the defect
        D[x, y] - [Dx, y] - [x, Dy] vanishes for all y form a subalgebra.
        A pair of two generators is taken once.

        Unknowns are the dim^2 entries of D flattened row-major, which
        fixes the layout of the returned basis.
        """
        d, table = self.dim, self._int_table()
        gens = set(self._generators())

        def rows():
            for i in gens:
                ri = table[i]
                for j in range(d):
                    rj = table[j]
                    if j == i or (j < i and j in gens) or (not ri and not rj):
                        continue
                    eq: dict[int, dict] = {}
                    for l, c in ri.get(j, ()):
                        for k in range(d):
                            e = eq.setdefault(k, {})
                            e[k * d + l] = e.get(k * d + l, 0) + c
                    for r, terms in rj.items():  # [x_r, x_j] = -[x_j, x_r]
                        for k, c in terms:
                            e = eq.setdefault(k, {})
                            e[r * d + i] = e.get(r * d + i, 0) + c
                    for r, terms in ri.items():
                        for k, c in terms:
                            e = eq.setdefault(k, {})
                            e[r * d + j] = e.get(r * d + j, 0) - c
                    yield from eq.values()
        space = nullspace(_equations(self.field, d * d, rows()))
        inner = d - self.center().dim
        return DerivationSpace(space, inner, space.dim - inner)

    def check_grading(self, degrees: Sequence[int]) -> bool:
        return self.grading_witness(degrees) is None

    def grading_witness(self, degrees: Sequence[int]) -> tuple[int, int, int] | None:
        """First (i, j, k) with c_{ij}^k != 0 but deg_k != deg_i + deg_j."""
        degrees = list(degrees)
        if len(degrees) != self.dim:
            raise ShapeError("degrees length mismatch")
        for (i, j), terms in sorted(self._isc.items()):
            for k, _ in terms:
                if degrees[k] != degrees[i] + degrees[j]:
                    return (i, j, k)
        return None


class BilinearForm(_Immutable):
    """A symmetric bilinear form on basis coordinates.

    A form is its cleared integer rows (``_cleared``); its ``matrix`` is
    a view, kept from ``__init__`` or converted on first use from rows
    given to ``_of_cleared``.
    """

    __slots__ = ("field", "dim", "_matrix", "_ints")

    def __init__(self, matrix: Matrix):
        scale, rows = matrix._cleared()
        if not matrix.is_square():
            raise ValueError(f"bilinear form matrix is {matrix.nrows}x{matrix.ncols}, not square")
        if not _is_symmetric(rows):
            raise ValueError("bilinear form matrix must be symmetric")
        self._set(field=matrix.field, dim=matrix.nrows, _matrix=matrix, _ints=(scale, rows))

    @classmethod
    def _of_cleared(cls, field, scale: int, rows: list[dict]) -> "BilinearForm":
        """The form rows / scale from one symmetric integer row per basis
        vector (taken mod p, scale 1, over F_p), scale > 0; zeros are
        dropped, an empty row is kept as it is, nothing is coerced or
        re-checked."""
        p = field.characteristic
        return object.__new__(cls)._set(field=field, dim=len(rows), _ints=(scale, [
            {} if not r else {c: x % p for c, x in r.items() if x % p} if p else
            {c: x for c, x in r.items() if x} for r in rows]))

    def __reduce__(self):
        return self._of_cleared, (self.field, *self._ints)

    @classmethod
    def from_entries(cls, field, grid: Iterable[Sequence]) -> "BilinearForm":
        return cls(Matrix(field, grid))

    @classmethod
    def zero(cls, field, dim: int) -> "BilinearForm":
        return cls(Matrix.zeros(field, dim, dim))

    @property
    def matrix(self) -> Matrix:
        return self._memo("_matrix", lambda: Matrix._of_scalars(self.field, tuple(
            _dense(self.field, r, self.dim, self._ints[0]) for r in self._ints[1])))

    def entry(self, i: int, j: int):
        return self.matrix.entry(i, j)

    def value(self, x: Sequence, y: Sequence):
        """B(x, y) = x^T M y; both vectors must have length ``dim``."""
        x = [self.field(v) for v in x]
        if len(x) != self.dim:
            raise ShapeError(f"vector of length {len(x)}, expected {self.dim}")
        return _dot(_sparse(x), _sparse(self.matrix * y), self.field.zero)

    def det(self):
        """det B = det(M B) / M^dim from the integer rows M B; no scalar
        matrix is built."""
        m, rows = self._cleared()
        return det(_Rows(self.field, self.dim, rows)) / m ** self.dim

    def is_nondegenerate(self) -> bool:
        """Whether the determinant of the integer rows is nonzero; it is
        zero at once when a row is empty, and otherwise the elimination
        stops at the first row that depends on the rows before it."""
        return det(_Rows(self.field, self.dim, self._cleared()[1])) != self.field.zero

    def scale(self, c) -> "BilinearForm":
        return BilinearForm(self.matrix.scale(c))

    def add(self, other: "BilinearForm") -> "BilinearForm":
        return BilinearForm(self.matrix + other.matrix)

    def _cleared(self) -> tuple[int, list[dict]]:
        """(M, rows): M times the form as sparse integer rows, one per
        basis vector (residues and M = 1 over F_p)."""
        return self._ints

    def restrict(self, s: Subspace) -> Matrix:
        """Gram matrix of the form on the subspace basis."""
        return self._restricted(s).matrix

    def _restricted(self, s: Subspace) -> "BilinearForm":
        """The form on the canonical basis of s, as integer rows: with l
        the lcm of the leads of the kernel rows u_a of s, w_a = (l /
        lead_a) u_a and G[a][b] = (M w_a) . w_b / (M l^2).  The w_b are
        indexed by column, cols[c] = [(b, w_b[c])], so row a of G is one
        combination of those columns (``_combine``) over the entries of
        M w_a: one sparse product, not k^2 dot products."""
        if s.ambient_dim != self.dim:
            raise ShapeError("form/subspace dimension mismatch")
        _require_same_field(s.field, self.field)
        echelon = s._echelon
        l = lcm(*(u[q] for q, u in echelon.items()))
        rows = [{c: x * (l // u[q]) for c, x in u.items()} for q, u in echelon.items()]
        cols: dict = {}
        for b, w in enumerate(rows):
            for c, x in w.items():
                cols.setdefault(c, []).append((b, x))
        p = self.field.characteristic
        return BilinearForm._of_cleared(self.field, self._cleared()[0] * l * l, [
            _combine(((x, cols.get(c, ())) for c, x in mw.items()), p)
            for mw in self._images(rows)])

    def _images(self, rows: Iterable[dict]) -> list[dict]:
        """M u for integer rows u, with M the cleared form: M is
        symmetric, so M u sums x times row c of M over the entries x = u[c]."""
        g, p = self._cleared()[1], self.field.characteristic
        return [_combine(((x, g[c].items()) for c, x in u.items()), p) for u in rows]

    def invariance_witness(self, alg: LieAlgebra) -> tuple[int, int, int] | None:
        """First basis triple (k, i, j) violating B([x_k,x_i],x_j) + B(x_i,[x_k,x_j]) = 0.

        The witness is the least (k, i, j), j >= i, in lexicographic order.
        All k are taken at once.  With the integer table packed over the
        acting index, Q[i][l] = sum_k L c_ki^l 2^(w k) (``_acting``), and
        the sparse rows of the cleared form G = M B, P = Q G is one
        combination of rows of G per (i, l), and P[i][j] = sum_k L M
        B([x_k,x_i],x_j) 2^(w k).  So S = P + P^T holds L M times the
        defect of (k, i, j) in digit k.  S is tested on P's support only,
        the (i, j) with some [x_k, x_i] meeting row j of G; on the
        diagonal S[i][i] = 2 P[i][i], which vanishes over F_2.  A digit of
        S is at most 2 dim C G in absolute value, C the largest integer
        constant and G the largest entry of the cleared form, and the
        width w is taken above that bound (``_width``): S[i][j] is 0
        exactly when the identity holds at (i, j) for every k.  The least
        failing k of (i, j) is S's lowest nonzero digit, read off its
        trailing zero bits over Q and from the decoded digits
        (``_digits``) mod p over F_p; the witness is the least such k
        with the least pair (i, j).  So the cost follows the number of
        nonzero bracket paths times the form's row lengths, each term a
        packed integer of up to about dim w bits.
        """
        if alg.dim != self.dim:
            raise ShapeError("form/algebra dimension mismatch")
        _require_same_field(alg.field, self.field)
        p = self.field.characteristic
        _, g = self._cleared()
        cmax = alg._largest_constant()
        # the form's entries matter only if the table has brackets
        gmax = cmax and max((abs(y) for r in g for y in r.values()), default=0)
        w = _width(2 * self.dim * cmax * gmax)
        prod: dict = {}  # the rows of P = Q G that Q has, {i: {j: P[i][j]}}
        for i, qi in _acting(alg._isc, w).items():
            pi = prod[i] = {}
            for l, v in qi.items():
                for j, y in g[l].items():
                    pi[j] = pi.get(j, 0) + v * y
        failing = []
        for i, pi in prod.items():
            for j, x in pi.items():
                pj = prod.get(j)
                s = x + pj.get(i, 0) if pj else x
                if not s:
                    continue
                if p:
                    k = next((k for k, y in _digits(s, w).items() if y % p), None)
                    if k is None:
                        continue
                else:
                    k = ((s & -s).bit_length() - 1) // w
                failing.append((k, i, j) if i <= j else (k, j, i))
        return min(failing, default=None)

    def is_invariant(self, alg: LieAlgebra) -> bool:
        return self.invariance_witness(alg) is None

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"BilinearForm({self.matrix!r})"


def _acting(isc: dict, w: int) -> dict:
    """{i: {l: Q[i][l]}}, Q[i][l] = sum_k c_ki^l 2^(w k) for an integer
    table {(a, b): ((l, c_ab^l), ...)}: the table packed over the acting
    index k, for the i of the stored brackets, without zero entries."""
    q: dict = {}
    for (a, b), terms in isc.items():
        qa, qb = q.setdefault(a, {}), q.setdefault(b, {})
        for l, c in terms:
            qb[l] = qb.get(l, 0) + (c << w * a)
            qa[l] = qa.get(l, 0) - (c << w * b)
    return q


def _width(bound: int) -> int:
    """The digit width w of a packed sum whose digits are at most
    ``bound`` in absolute value: bound < 2^(w-1)."""
    return bound.bit_length() + 1


def _digits(n: int, w: int) -> dict:
    """{m: d_m} for the nonzero digits of n = sum d_m 2^(w m), every
    |d_m| < 2^(w-1): the balanced base-2^w digits, which are unique, so
    n is 0 exactly when every digit is.  Runs of zero digits are skipped
    over the trailing zero bits."""
    out: dict = {}
    half, mask, m = 1 << (w - 1), (1 << w) - 1, 0
    while n:
        skip = ((n & -n).bit_length() - 1) // w
        n >>= w * skip
        r = n & mask
        if r >= half:
            r -= 1 << w
        out[m + skip] = r
        n = (n - r) >> w
        m += skip + 1
    return out


def _is_symmetric(rows: list[dict]) -> bool:
    """Whether square sparse rows are symmetric, rows[i][j] == rows[j][i]."""
    return all(rows[j].get(i) == x for i, r in enumerate(rows) for j, x in r.items())


def _form_of_blocks(field, dim: int, blocks) -> BilinearForm:
    """The form holding each (row0, col0, form) block at that offset, zero
    elsewhere (an off-diagonal block needs its mirror): the blocks' rows
    over the lcm of their scales, in lowest terms as ``_clear`` gives."""
    for _, _, f in blocks:
        _require_same_field(field, f.field)
    s = lcm(*(f._cleared()[0] for _, _, f in blocks))
    rows: list[dict] = [{} for _ in range(dim)]
    for row0, col0, f in blocks:
        m, frows = f._cleared()
        for i, r in enumerate(frows):
            rows[row0 + i].update({col0 + c: x * (s // m) for c, x in r.items()})
    g = gcd(s, *(x for r in rows for x in r.values()))
    return BilinearForm._of_cleared(field, s // g, [{c: x // g for c, x in r.items()}
                                                    for r in rows])


def form_block_sum(b1: BilinearForm, b2: BilinearForm) -> BilinearForm:
    """Orthogonal (block-diagonal) sum of two forms."""
    return _form_of_blocks(b1.field, b1.dim + b2.dim, [(0, 0, b1), (b1.dim, b1.dim, b2)])


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Direct sum of Lie algebras (blocks bracket independently)."""
    _require_same_field(a.field, b.field)
    brackets = {}
    for (i, j), terms in a.sc.items():
        brackets[(i, j)] = terms
    off = a.dim
    for (i, j), terms in b.sc.items():
        brackets[(i + off, j + off)] = [(k + off, c) for k, c in terms]
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(a.labels) + tuple(b.labels)
    grading = None
    if a.grading is not None and b.grading is not None:
        grading = tuple(a.grading) + tuple(b.grading)
    return LieAlgebra(a.field, a.dim + b.dim, brackets,
                      labels=labels, grading=grading)
