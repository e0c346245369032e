"""Exact linear algebra over Q and prime fields.

Matrices are immutable row-major grids of exact scalars.  Every
elimination runs through one sparse Gauss-Jordan kernel (``_insert``,
``_reduce``) on ``{col: value}`` rows.  Its rows keep a 1 at their pivot
and no entry in any other pivot column, i.e. they are always the
reduced row-echelon form of what was inserted, which is unique for the
span: row order and duplicates cannot change it, so two spans of the
same subspace give bit-identical ``Subspace`` objects.  Solvers hand
their equations to ``nullspace`` as sparse rows of ``(col, coeff)``
pairs with an explicit column count (``_equations``), and spans built
from sparse vectors go straight into the kernel (``Subspace._span``), so
no system is padded to dense width on the way in.  Products read both
operands as the same ``{col: value}`` rows and sum only the products of
nonzero entries (``_dot``).  No floating point appears anywhere in this
module.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .fields import FieldMismatchError, FpElement, PrimeField, QQ, RationalField

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


def _check_same_field(a, b):
    if a.field != b.field:
        raise FieldMismatchError(f"field mismatch: {a.field} vs {b.field}")


class Matrix:
    """An immutable exact matrix over a fixed field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows: Iterable[Sequence]):
        coerced = tuple(tuple(field(x) for x in row) for row in rows)
        if coerced and any(len(r) != len(coerced[0]) for r in coerced):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(coerced))
        object.__setattr__(self, "ncols", len(coerced[0]) if coerced else 0)
        object.__setattr__(self, "rows", coerced)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)])

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, zip(*self.rows)) if self.rows else \
            Matrix(self.field, [])

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
        return Matrix(self.field, [[c * x for x in r] for r in self.rows])

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-x for x in r] for r in self.rows])

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_field(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix addition shape mismatch")
        return Matrix(self.field,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            _check_same_field(self, other)
            if self.ncols != other.nrows:
                raise ShapeError("matrix product shape mismatch")
            cols = [_sparse(c) for c in zip(*other.rows)]
            zero = self.field.zero
            return Matrix(self.field, [[_dot(r, c, zero) for c in cols]
                                       for r in map(_sparse, self.rows)])
        # vector on the right
        vec = [self.field(x) for x in other]
        if self.ncols != len(vec):
            raise ShapeError("matrix-vector shape mismatch")
        vec = _sparse(vec)
        zero = self.field.zero
        return tuple(_dot(_sparse(r), vec, zero) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows
                and (self.nrows, self.ncols) == (other.nrows, other.ncols))

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: {body})"


def _dot(u: dict, v: dict, zero):
    """Sum of u[c] * v[c] over the shared columns of two sparse rows."""
    if len(v) < len(u):
        u, v = v, u
    return sum((a * v[c] for c, a in u.items() if c in v), zero)


def _reduce(echelon: dict, row: dict) -> None:
    """Clear every pivot column of the ``{pivot: row}`` echelon from ``row``.

    Stored rows have no entry in other pivot columns, so one subtraction
    per pivot that ``row`` touches suffices, in any order.
    """
    for p in [c for c in row if c in echelon]:
        f = row[p]
        for c, y in echelon[p].items():
            x = row.get(c)
            x = -f * y if x is None else x - f * y
            if x:
                row[c] = x
            else:
                del row[c]


def _insert(echelon: dict, row: dict):
    """Reduce ``row`` and store it, clearing its pivot from the other rows.

    Returns ``(pivot, lead)`` with the pivot entry before normalisation,
    or None (storing nothing) if the row was dependent.
    """
    _reduce(echelon, row)
    if not row:
        return None
    pivot = min(row)
    lead = row[pivot]
    row = {c: x / lead for c, x in row.items()}
    single = {pivot: row}
    for other in echelon.values():
        if pivot in other:
            _reduce(single, other)
    echelon[pivot] = row
    return pivot, lead


def _sparse(row) -> dict:
    return {c: x for c, x in enumerate(row) if x}


def _echelon(rows: Iterable[dict]) -> dict:
    echelon: dict = {}
    for r in rows:
        _insert(echelon, r)
    return echelon


def _dense(row: dict, ncols: int, zero) -> tuple:
    return tuple(row.get(c, zero) for c in range(ncols))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form of ``m`` and its pivot column indices."""
    echelon = _echelon(map(_sparse, m.rows))
    pivots = sorted(echelon)
    zero = m.field.zero
    rows = [_dense(echelon[p], m.ncols, zero) for p in pivots]
    rows += [(zero,) * m.ncols] * (m.nrows - len(pivots))
    return Matrix(m.field, rows), pivots


def rank(m: Matrix) -> int:
    return len(_echelon(map(_sparse, m.rows)))


class _Rows(NamedTuple):
    """A linear system: ``ncols`` unknowns, one tuple of ``(col, coeff)``
    pairs per equation, one pair per nonzero coefficient."""
    field: object
    ncols: int
    rows: tuple

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _equations(field, ncols: int, rows: Iterable[dict]) -> _Rows:
    """The system of the ``{col: coeff}`` rows, dropping zero
    coefficients, empty rows and repeated rows."""
    eqs = {frozenset((c, x) for c, x in r.items() if x) for r in rows} - {frozenset()}
    return _Rows(field, ncols, tuple(map(tuple, eqs)))


def nullspace(m: Matrix | _Rows) -> "Subspace":
    """Canonical basis of {v : m v = 0} as a subspace of the column space.

    ``m`` is a ``Matrix`` or a sparse system built by ``_equations``; a
    system with no rows has the whole column space as its kernel.  The
    free-variable vectors are re-reduced into the canonical RREF basis
    like any other span.
    """
    if isinstance(m, Matrix):
        m = _equations(m.field, m.ncols, map(_sparse, m.rows))
    echelon = _echelon(dict(r) for r in m.rows)
    one = m.field.one
    free = {f: {f: one} for f in range(m.ncols) if f not in echelon}
    for p, row in echelon.items():
        for f, x in row.items():
            if f != p:
                free[f][p] = -x
    return Subspace._span(m.field, m.ncols, free.values())


def det(m: Matrix):
    """Exact determinant: the signed product of the elimination leads.

    Inserting the rows in order, each pivot lead divides out of the row
    and the reduced rows end as a permutation of the identity whose sign
    is the parity of the inversions among the pivot columns.
    """
    if not m.is_square():
        raise ShapeError("determinant of a non-square matrix")
    echelon: dict = {}
    result = m.field.one
    for r in m.rows:
        found = _insert(echelon, _sparse(r))
        if found is None:
            return m.field.zero
        pivot, lead = found
        if sum(1 for p in echelon if p > pivot) % 2:
            lead = -lead
        result = result * lead
    return result


def solve(m: Matrix, b: Sequence):
    """One solution of m x = b (pivot-variable convention), or None."""
    bvec = [m.field(x) for x in b]
    if len(bvec) != m.nrows:
        raise ShapeError("right-hand side length mismatch")
    n = m.ncols
    echelon = _echelon(_sparse(list(r) + [bv]) for r, bv in zip(m.rows, bvec))
    if n in echelon:
        return None  # a pivot in the augmented column means inconsistency
    zero = m.field.zero
    return tuple(echelon[c].get(n, zero) if c in echelon else zero
                 for c in range(n))


class Subspace:
    """A linear subspace with a canonical RREF basis.

    Equality of subspaces is literal equality of the stored basis, which
    the RREF normal form makes sound: equal spaces have identical bases.
    """

    __slots__ = ("field", "ambient_dim", "basis", "_echelon")

    def __init__(self, field, ambient_dim: int, vectors: Iterable[Sequence]):
        rows = [[field(x) for x in v] for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ShapeError("spanning vector of wrong length")
        self._hold(field, ambient_dim, _echelon(map(_sparse, rows)))

    @classmethod
    def _span(cls, field, ambient_dim: int, rows: Iterable[dict]) -> "Subspace":
        """Span of sparse ``{col: value}`` rows of exact scalars; the
        kernel consumes the rows."""
        s = object.__new__(cls)
        s._hold(field, ambient_dim, _echelon(rows))
        return s

    def _hold(self, field, ambient_dim: int, echelon: dict):
        zero = field.zero
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(
            _dense(echelon[p], ambient_dim, zero) for p in sorted(echelon)))
        object.__setattr__(self, "_echelon", echelon)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return cls(field, ambient_dim, vectors)

    @classmethod
    def zero(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim,
                   Matrix.identity(field, ambient_dim).rows)

    @classmethod
    def coordinate(cls, field, ambient_dim: int, indices: Iterable[int]) -> "Subspace":
        """Span of the given basis coordinates."""
        zero, one = field.zero, field.one
        vecs = []
        for i in indices:
            v = [zero] * ambient_dim
            v[i] = one
            vecs.append(v)
        return cls(field, ambient_dim, vecs)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, self.basis)

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self._echelon))

    def reduce(self, v: Sequence) -> tuple:
        """Canonical representative of v modulo this subspace."""
        vec = [self.field(x) for x in v]
        if len(vec) != self.ambient_dim:
            raise ShapeError("vector of wrong length")
        row = _sparse(vec)
        _reduce(self._echelon, row)
        return _dense(row, self.ambient_dim, self.field.zero)

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        _check_same_field(self, other)
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        return Subspace(self.field, self.ambient_dim,
                        list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection by Zassenhaus: the RREF of the rows (u, u) for u
        in this basis and (v, 0) for v in the other's; its rows (0, w)
        are the canonical basis of the intersection."""
        _check_same_field(self, other)
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        n = self.ambient_dim
        echelon = _echelon(
            [{**u, **{c + n: x for c, x in u.items()}} for u in self._echelon.values()]
            + [dict(v) for v in other._echelon.values()])
        return Subspace._span(self.field, n, ({c - n: x for c, x in row.items()}
                                              for p, row in echelon.items() if p >= n))

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        vecs = ", ".join("(" + ", ".join(str(x) for x in v) + ")"
                         for v in self.basis)
        return f"Subspace(dim {self.dim} of {self.ambient_dim}: {vecs})"
