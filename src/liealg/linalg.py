"""Exact linear algebra over Q and prime fields.

Matrices are immutable row-major grids of exact scalars.  Every
elimination runs through one sparse Gauss-Jordan kernel (``_insert``,
``_reduce``) on ``{col: int}`` rows, so its loops do plain integer
arithmetic.  Over Q a kernel row is a primitive integer row (content 1,
positive pivot entry) that stands for itself divided by its pivot
entry; a row is reduced fraction-free, r <- m r - f e, and its content
is removed (Bareiss, Math. Comp. 22, 1968).  Over F_p a kernel row
holds residues with a 1 at its pivot.  Either way the stored rows have
no entry in any other pivot column, i.e. they are the reduced
row-echelon form of what was inserted, which is unique for the span:
row order and duplicates cannot change it, so two spans of the same
subspace give bit-identical ``Subspace`` objects.  Bulk eliminations
(``_echelon``: spans, kernels, ``rref``, ``rank``, ``solve`` and the
tagged basis of ``LieAlgebra._rebase``, the table in another basis)
therefore materialise their rows and insert them sparsest first, which
keeps the fraction-free multipliers and the intermediate entries small
on dense systems.  Three callers insert rows one at a time as given:
``det``, whose sign follows the row order (and which answers zero
without eliminating when a row is empty), and two that act on each
row as it goes in, the generating-set search
(``LieAlgebra._greedy_generators``) and the ad-module closure
(``LieAlgebra._module_closure``).  An echelon is handed back
in pivot order, so a ``Subspace`` is walked in basis order unsorted and
a pickled one comes back with the same state.

Scalars cross the kernel boundary twice.  On the way in, each value is
cleared to integers once, where it enters: every ``Matrix`` or vector
entry point (``rref``, ``rank``, ``nullspace``, ``solve``, ``det``,
``Subspace(...)``) and every form built from a ``Matrix`` go through
``_clear`` (times the lcm of all the denominators, or residues); code
that already holds integers (``LieAlgebra``'s bracket table, a form's
rows) hands them over directly, since an equation's scale does not
matter.  On the way out, a ``Subspace`` basis (on first use), ``rref``
rows, ``det``, ``solve`` and ``Subspace.reduce`` are converted once into
canonical ``Fraction`` or ``FpElement`` values (``_scalars``,
``_dense``); a ``Subspace`` keeps its kernel rows for equality and
further elimination.  Solvers hand their equations to ``nullspace`` as
sparse rows of ``(col, coeff)`` pairs with an explicit column count
(``_equations``), and spans of sparse vectors go straight into the
kernel (``Subspace._span``), so no system is padded to dense width.

Beside the kernel there is one primitive for linear combinations of
integer rows: ``_combine`` sums f * row over ``(f, row)`` pairs and
drops the zero entries (residues over F_p).  A form applied to vectors,
a combination of forms, a linear map applied to a bracket and a product
of actions are all such sums, so the library's own maps never go
through ``Matrix`` arithmetic.  The public ``Matrix`` products read both
operands as ``{col: value}`` rows of scalars and sum only the products
of nonzero entries (``_dot``).  No floating point appears anywhere in
this module.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .fields import FieldMismatchError, FpElement

__all__ = [
    "FieldMismatchError",
    "ShapeError",
    "Matrix",
    "Subspace",
    "rref",
    "rank",
    "nullspace",
    "det",
    "solve",
]


class ShapeError(ValueError):
    """Raised when matrix dimensions do not fit the requested operation."""


class _Immutable:
    """A value that forbids attribute assignment, so a copy is the value
    itself.  Its state is set once, by ``_set``; a lazy view or a derived
    value lives in a slot that is None until its first read (``_memo``)."""

    __slots__ = ()

    def _set(self, **state):
        """Set every slot of the class to its value in ``state``, or to
        None; returns the object, so a trusted constructor is
        ``object.__new__(cls)._set(...)``."""
        put = object.__setattr__
        for slot in type(self).__slots__:
            put(self, slot, state.get(slot))
        return self

    def _memo(self, slot: str, compute):
        """The value kept in ``slot``, computed on first use: the object
        is immutable, so it is computed once per object."""
        value = getattr(self, slot)
        if value is None:
            value = compute()
            object.__setattr__(self, slot, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _require_same_field(f1, f2):
    if f1 != f2:
        raise FieldMismatchError(f"field mismatch: {f1} vs {f2}")


class Matrix(_Immutable):
    """An immutable exact matrix over a fixed field.

    A matrix the library builds keeps its shape when it has no rows:
    ``zeros``, ``transpose``, the products, ``scale``, negation, sums,
    ``rref`` and ``Subspace.basis_matrix`` carry the column count, and a
    pickle keeps it.  ``Matrix(field, [])`` has no rows to read a width
    from and is 0 x 0.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows: Iterable[Sequence]):
        coerced = tuple(tuple(field(x) for x in row) for row in rows)
        ncols = len(coerced[0]) if coerced else 0
        if any(len(r) != ncols for r in coerced):
            raise ShapeError("ragged rows")
        self._set(field=field, nrows=len(coerced), ncols=ncols, rows=coerced)

    @classmethod
    def _of_scalars(cls, field, rows: tuple[tuple, ...], ncols: int | None = None) -> "Matrix":
        """The matrix of equal-length rows of canonical scalars of ``field``
        (as ``_dense`` gives them), held as given: nothing is coerced.
        ``ncols`` defaults to the length of the first row, or 0."""
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return object.__new__(cls)._set(field=field, nrows=len(rows), ncols=ncols, rows=rows)

    def __reduce__(self):
        return self._of_scalars, (self.field, self.rows, self.ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        if nrows < 0 or ncols < 0:
            raise ShapeError(f"no {nrows}x{ncols} matrix")
        return cls._of_scalars(field, ((field.zero,) * ncols,) * nrows, ncols)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return self._of_scalars(self.field, _columns(self), self.nrows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i))

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(x == zero for r in self.rows for x in r)

    def trace(self):
        if not self.is_square():
            raise ShapeError("trace of a non-square matrix")
        t = self.field.zero
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def scale(self, c) -> "Matrix":
        c = self.field(c)
        return self._of_scalars(self.field, tuple(tuple(c * x for x in r) for r in self.rows),
                                self.ncols)

    def __neg__(self) -> "Matrix":
        return self._of_scalars(self.field, tuple(tuple(-x for x in r) for r in self.rows),
                                self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        _require_same_field(self.field, other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix addition shape mismatch")
        return self._of_scalars(self.field, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            _require_same_field(self.field, other.field)
            if self.ncols != other.nrows:
                raise ShapeError("matrix product shape mismatch")
            cols = [_sparse(c) for c in _columns(other)]
            zero = self.field.zero
            return self._of_scalars(self.field, tuple(
                tuple(_dot(r, c, zero) for c in cols) for r in map(_sparse, self.rows)),
                other.ncols)
        # vector on the right
        vec = [self.field(x) for x in other]
        if self.ncols != len(vec):
            raise ShapeError("matrix-vector shape mismatch")
        vec = _sparse(vec)
        zero = self.field.zero
        return tuple(_dot(_sparse(r), vec, zero) for r in self.rows)

    def _cleared(self) -> tuple[int, list[dict]]:
        """(s, rows): the matrix times s as sparse kernel rows (``_clear``)."""
        return _clear(self.field, map(_sparse, self.rows))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows
                and (self.nrows, self.ncols) == (other.nrows, other.ncols))

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"


def _columns(m: Matrix) -> tuple:
    """The columns of ``m`` as tuples, ``ncols`` of them even with no rows."""
    return tuple(zip(*m.rows)) if m.rows else ((),) * m.ncols


def _dot(u: dict, v: dict, zero):
    """Sum of u[c] * v[c] over the shared columns of two sparse rows."""
    if len(v) < len(u):
        u, v = v, u
    return sum((a * v[c] for c, a in u.items() if c in v), zero)


def _sparse(row) -> dict:
    return {c: x for c, x in enumerate(row) if x}


def _combine(terms: Iterable[tuple[int, Iterable]], p: int) -> dict:
    """Sum of f * row over the ``(f, row)`` pairs, each row a run of
    ``(col, int)`` pairs, as a ``{col: int}`` row without zero entries
    (residues over F_p)."""
    out: dict = {}
    for f, row in terms:
        for c, x in row:
            out[c] = out.get(c, 0) + f * x
    if p:
        return {c: x % p for c, x in out.items() if x % p}
    return {c: x for c, x in out.items() if x}


# -- the kernel: integer rows --------------------------------------------------

def _clear(field, rows: Iterable[dict]) -> tuple[int, list[dict]]:
    """Kernel rows of sparse rows of field scalars, and their common scale.

    Over Q every integer row is s times its scalar row, s the lcm of all
    the denominators; over F_p the rows hold the residues and s is 1.
    """
    if field.characteristic:
        return 1, [{c: x.r for c, x in r.items()} for r in rows]
    rows = list(rows)
    s = lcm(*(x.denominator for r in rows for x in r.values()))
    if s == 1:
        return 1, [{c: x.numerator for c, x in r.items()} for r in rows]
    return s, [{c: x.numerator * (s // x.denominator) for c, x in r.items()}
               for r in rows]


def _scalars(field, den: int):
    """The map x -> x / den from kernel integers to canonical scalars."""
    p = field.characteristic
    if p:
        inv = pow(den, -1, p)
        return lambda x: FpElement(p, x * inv)
    return lambda x: Fraction(x, den)


def _dense(field, row: dict, ncols: int, den: int) -> tuple:
    """The kernel row ``row / den`` as a dense tuple of canonical scalars."""
    out = [field.zero] * ncols
    conv = _scalars(field, den)
    for c, x in row.items():
        out[c] = conv(x)
    return tuple(out)


def _normalise(row: dict, pivot: int, p: int) -> None:
    """Scale ``row`` in place to its canonical multiple: over Q primitive
    (content 1) with a positive pivot entry, over F_p with a 1 there."""
    if p:
        inv = pow(row[pivot], -1, p)
        if inv != 1:
            for c, x in row.items():
                row[c] = x * inv % p
        return
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for c, x in row.items():
            row[c] = x // g


def _reduce(echelon: dict, row: dict, p: int) -> int:
    """Clear every pivot column of the ``{pivot: row}`` echelon from ``row``.

    Returns the m with row = m * (the exact reduction); m is 1 over F_p.
    Stored rows have no entry in other pivot columns, so one subtraction
    per pivot that ``row`` touches suffices, in any order.  Over Q the
    row is first multiplied by the least m that makes every quotient
    m row[q] / lead_q integral, then r <- m r - sum_q (m r[q] / lead_q) e_q.
    """
    hits = [q for q in row if q in echelon]
    if not hits:
        return 1
    if p:
        for q in hits:
            f = row[q]
            for c, y in echelon[q].items():
                x = (row.get(c, 0) - f * y) % p
                if x:
                    row[c] = x
                else:
                    del row[c]
        return 1
    m = 1
    for q in hits:
        lead = echelon[q][q]
        m = lcm(m, lead // gcd(lead, row[q]))
    if m != 1:
        for c, x in row.items():
            row[c] = m * x
    for q in hits:
        e = echelon[q]
        f = row[q] // e[q]
        for c, y in e.items():
            x = row.get(c, 0) - f * y
            if x:
                row[c] = x
            else:
                del row[c]
    return m


def _insert(echelon: dict, row: dict, p: int, cols: set):
    """Reduce ``row``, store its canonical multiple and clear its pivot
    from the other rows.

    Returns ``(pivot, lead, m)``: after reduction the row is m times the
    exact reduction and holds ``lead`` at its pivot, so the exact pivot
    entry is lead / m.  Returns None (storing nothing) if the row was
    dependent.  ``cols`` is kept beside the echelon (empty with it) and
    holds every column a stored row ever had an entry in: clearing adds
    only columns of the new row, so a pivot outside it is in no stored
    row and the rows are not scanned for it.  A span of rows on distinct
    columns (Abelian input) is built in linear time.
    """
    m = _reduce(echelon, row, p)
    if not row:
        return None
    pivot = min(row)
    lead = row[pivot]
    _normalise(row, pivot, p)
    if pivot in cols:
        single = {pivot: row}
        for q, other in echelon.items():
            if pivot in other:
                _reduce(single, other, p)
                _normalise(other, q, p)
    cols.update(row)
    echelon[pivot] = row
    return pivot, lead, m


def _echelon(rows: Iterable[dict], p: int) -> dict:
    """The canonical echelon of the rows, which it consumes, inserted
    sparsest first and returned in pivot order.

    Rows with few nonzeros reduce against few pivots, so the multipliers
    of the fraction-free steps stay small while the echelon fills (a
    static Markowitz-style order; Markowitz, Management Sci. 3, 1957).
    The stored rows are the RREF of the span whatever the order, so the
    order changes only the intermediate rows; the sort is stable.
    """
    echelon: dict = {}
    cols: set = set()
    for r in sorted(rows, key=len):
        _insert(echelon, r, p, cols)
    return dict(sorted(echelon.items()))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form of ``m`` and its pivot column indices."""
    echelon = _echelon(m._cleared()[1], m.field.characteristic)
    pivots = list(echelon)
    zero = m.field.zero
    rows = [_dense(m.field, row, m.ncols, row[q]) for q, row in echelon.items()]
    rows += [(zero,) * m.ncols] * (m.nrows - len(pivots))
    return Matrix._of_scalars(m.field, tuple(rows), m.ncols), pivots


def rank(m: Matrix) -> int:
    return len(_echelon(m._cleared()[1], m.field.characteristic))


class _Rows(NamedTuple):
    """A linear system: ``ncols`` unknowns, one tuple of ``(col, coeff)``
    pairs (or one ``{col: coeff}`` dict) per equation, one entry per
    nonzero integer coefficient."""
    field: object
    ncols: int
    rows: tuple

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _equations(field, ncols: int, rows: Iterable[dict]) -> _Rows:
    """The system of the ``{col: coeff}`` rows of integers (taken mod p
    over F_p), dropping zero coefficients, empty rows and repeated rows.
    An equation's scale does not matter, so integer tables and cleared
    rows can be handed over as they are."""
    p = field.characteristic
    if p:
        rows = ({c: x % p for c, x in r.items()} for r in rows)
    eqs = {frozenset((c, x) for c, x in r.items() if x) for r in rows} - {frozenset()}
    return _Rows(field, ncols, tuple(map(tuple, eqs)))


def nullspace(m: Matrix | _Rows) -> "Subspace":
    """Canonical basis of {v : m v = 0} as a subspace of the column space.

    ``m`` is a ``Matrix`` or a sparse system built by ``_equations``; a
    system with no rows has the whole column space as its kernel.  One
    elimination takes the equations sparsest first (``_echelon``); the
    order of ``_equations`` is a set's and does not matter.  Each free
    column f gives the vector with x_f = 1 and x_q = -row_q[f] / lead_q
    at the pivots q, cleared to integers; these vectors are re-reduced
    into the canonical RREF basis like any other span.
    """
    if isinstance(m, Matrix):
        m = _equations(m.field, m.ncols, m._cleared()[1])
    p = m.field.characteristic
    echelon = _echelon(map(dict, m.rows), p)
    free = {f: {} for f in range(m.ncols) if f not in echelon}
    for q, row in echelon.items():
        for f, x in row.items():
            if f != q:
                free[f][q] = x
    vectors = []
    for f, col in free.items():
        s = lcm(*(echelon[q][q] for q in col))
        v = {q: -x * (s // echelon[q][q]) for q, x in col.items()}
        if p:
            v = {q: x % p for q, x in v.items()}
        v[f] = s
        vectors.append(v)
    return Subspace._span(m.field, m.ncols, vectors)


def det(m: Matrix | _Rows):
    """Exact determinant: the signed product of the elimination leads.

    ``m`` is a ``Matrix`` or a square system of integer rows (``_Rows``,
    residues over F_p), whose determinant is that of the integers as
    given.  A ``Matrix`` is cleared once, with one scale s, so its
    integer rows have s^n times its determinant (s = 1 over F_p).
    Inserting the rows in order, each exact pivot lead divides out of
    its row and the reduced rows end as a permutation of the identity
    whose sign is the parity of the inversions among the pivot columns.
    A row leaves reduction as m times the exact reduction, so its exact
    lead is lead / m; the numerators and denominators are multiplied as
    integers and divided once, by s^n times the product of the m.  The
    answer is zero, before any elimination, when a row is empty, and
    otherwise at the first row that reduces to zero: the rows after it
    are never reduced.
    """
    if m.nrows != m.ncols:
        raise ShapeError("determinant of a non-square matrix")
    p = m.field.characteristic
    s, rows = m._cleared() if isinstance(m, Matrix) else (1, m.rows)
    if not all(rows):
        return m.field.zero
    echelon: dict = {}
    cols: set = set()
    num, den = 1, s ** m.nrows
    for r in rows:
        found = _insert(echelon, dict(r), p, cols)
        if found is None:
            return m.field.zero
        pivot, lead, mult = found
        if sum(1 for q in echelon if q > pivot) % 2:
            lead = -lead
        num, den = num * lead, den * mult
        if p:
            num %= p
    return _scalars(m.field, den)(num)


def solve(m: Matrix, b: Sequence):
    """One solution of m x = b (pivot-variable convention), or None."""
    bvec = [m.field(x) for x in b]
    if len(bvec) != m.nrows:
        raise ShapeError("right-hand side length mismatch")
    n = m.ncols
    _, rows = _clear(m.field, (_sparse(r + (bv,)) for r, bv in zip(m.rows, bvec)))
    echelon = _echelon(rows, m.field.characteristic)
    if n in echelon:
        return None  # a pivot in the augmented column means inconsistency
    zero = m.field.zero
    return tuple(_scalars(m.field, echelon[c][c])(echelon[c][n])
                 if c in echelon and n in echelon[c] else zero for c in range(n))


class Subspace(_Immutable):
    """A linear subspace with a canonical RREF basis.

    Equality of subspaces is literal equality of the canonical kernel
    rows (``_echelon``, ``{pivot: row}`` in pivot order), which the RREF
    normal form makes sound: equal spaces have identical rows and
    identical bases.
    The basis, as dense tuples of field scalars, is converted from the
    kernel rows on first use.
    """

    __slots__ = ("field", "ambient_dim", "_echelon", "_basis")

    def __init__(self, field, ambient_dim: int, vectors: Iterable[Sequence]):
        rows = [[field(x) for x in v] for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ShapeError("spanning vector of wrong length")
        self._set(field=field, ambient_dim=ambient_dim, _echelon=_echelon(
            _clear(field, map(_sparse, rows))[1], field.characteristic))

    @classmethod
    def _span(cls, field, ambient_dim: int, rows: Iterable[dict]) -> "Subspace":
        """Span of kernel rows ``{col: int}`` of any scale (residues over
        F_p), in any order: ``_echelon`` takes them all and inserts them
        sparsest first, and consumes them."""
        return object.__new__(cls)._set(field=field, ambient_dim=ambient_dim,
                                        _echelon=_echelon(rows, field.characteristic))

    def __reduce__(self):
        # canonical rows, inserted in any order, are their own echelon
        return self._span, (self.field, self.ambient_dim, list(self._echelon.values()))

    @classmethod
    def span(cls, field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return cls(field, ambient_dim, vectors)

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls.coordinate(field, ambient_dim, range(ambient_dim))

    @classmethod
    def coordinate(cls, field, ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of the given basis coordinates, each in 0..ambient_dim-1
        (repeats are merged).  The unit rows are their own canonical
        echelon, so nothing is eliminated."""
        echelon = {}
        for i in map(operator.index, indices):
            if not 0 <= i < ambient_dim:
                raise ShapeError(f"coordinate {i} out of range 0..{ambient_dim - 1}"
                                 if ambient_dim else
                                 f"coordinate {i} of the zero-dimensional space")
            echelon[i] = {i: 1}
        return object.__new__(cls)._set(field=field, ambient_dim=ambient_dim,
                                        _echelon=dict(sorted(echelon.items())))

    @property
    def basis(self) -> tuple:
        """The canonical RREF basis, one dense tuple of scalars per pivot."""
        return self._memo("_basis", lambda: tuple(
            _dense(self.field, row, self.ambient_dim, row[q])
            for q, row in self._echelon.items()))

    @property
    def dim(self) -> int:
        return len(self._echelon)

    def is_zero(self) -> bool:
        return not self._echelon

    def basis_matrix(self) -> Matrix:
        return Matrix._of_scalars(self.field, self.basis, self.ambient_dim)

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(self._echelon)

    def _cleared(self, v: Sequence) -> tuple[int, dict]:
        vec = [self.field(x) for x in v]
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector of wrong length")
        s, (row,) = _clear(self.field, [_sparse(vec)])
        return s, row

    def reduce(self, v: Sequence) -> tuple:
        """Canonical representative of v modulo this subspace."""
        s, row = self._cleared(v)
        m = _reduce(self._echelon, row, self.field.characteristic)
        return _dense(self.field, row, self.ambient_dim, s * m)

    def contains(self, v: Sequence) -> bool:
        return self._contains_row(self._cleared(v)[1])

    def _contains_row(self, row: dict) -> bool:
        """Whether the kernel row lies in this subspace; consumes the row."""
        _reduce(self._echelon, row, self.field.characteristic)
        return not row

    def _check_operand(self, other: "Subspace"):
        _require_same_field(self.field, other.field)
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_operand(other)
        return all(self._contains_row(dict(r)) for r in other._echelon.values())

    def add(self, other: "Subspace") -> "Subspace":
        self._check_operand(other)
        return Subspace._span(self.field, self.ambient_dim, [
            dict(r) for r in (*self._echelon.values(), *other._echelon.values())])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection by Zassenhaus: the RREF of the rows (u, u) for u
        in this basis and (v, 0) for v in the other's; its rows (0, w)
        are the canonical basis of the intersection."""
        self._check_operand(other)
        n = self.ambient_dim
        echelon = _echelon(
            [{**u, **{c + n: x for c, x in u.items()}} for u in self._echelon.values()]
            + [dict(v) for v in other._echelon.values()], self.field.characteristic)
        return Subspace._span(self.field, n, ({c - n: x for c, x in row.items()}
                                              for q, row in echelon.items() if q >= n))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self._echelon == other._echelon)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, frozenset(
            (q, frozenset(row.items())) for q, row in self._echelon.items())))

    def __repr__(self):
        vecs = ", ".join("(" + ", ".join(str(x) for x in v) + ")"
                         for v in self.basis)
        return f"Subspace(dim {self.dim} of {self.ambient_dim}: {vecs})"
