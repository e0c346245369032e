"""Exact scalar arithmetic: the rationals and prime fields.

Field objects are lightweight descriptors that coerce raw values into
scalars.  Rational scalars are plain ``fractions.Fraction`` (already in
lowest terms with positive denominator); prime-field scalars are
``FpElement`` residues.  They are the scalars of the public API:
matrices, forms, brackets, subspace bases and every result are made of
them, and the public ``Matrix`` operations (products, sums, ``scale``)
use their ``+ - * /``.

The library's own computations do not: the elimination kernel and the
sparse row combinations in ``liealg.linalg``, the structure-constant
scans and linear-map checks in ``liealg.core`` and the constructions
in ``liealg.selfdual`` run on plain ``int`` rows and do no ``Matrix``
arithmetic.  They dispatch on ``characteristic`` (0 for Q, p for F_p), read
scalars in through ``Fraction.numerator``/``denominator`` (rows cleared
of their common denominator) or ``FpElement.r`` (residues), and hand
results back once, at their boundary, as ``Fraction(x, den)`` or
``FpElement(p, x)``.
"""

from __future__ import annotations

from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when scalars or matrices over different fields are mixed."""


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37, exact
    below 2^64 (Sorenson and Webster, Math. Comp. 86, 2017); larger
    moduli raise ValueError as out of range."""
    if p >= 1 << 64:
        raise ValueError(f"modulus {p} is out of range (at least 2^64)")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % b == 0 for b in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in bases:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class FpElement:
    """A residue mod a prime p, stored in [0, p)."""

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r % p

    def __reduce__(self):
        return FpElement, (self.p, self.r)

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix F_{self.p} and F_{other.p} elements")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.p, self.r + other.r)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.p, self.r - other.r)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.p, other.r - self.r)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FpElement(self.p, self.r * other.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.r == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.p, self.r * pow(other.r, -1, self.p))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return FpElement(self.p, -self.r)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            return self.r == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.r))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return f"{self.r} (mod {self.p})"


class RationalField:
    """Descriptor for Q; scalars are ``Fraction`` values."""

    characteristic = 0

    def __call__(self, value, den=None) -> Fraction:
        if den is not None:
            return Fraction(value, den)
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """Descriptor for F_p, p prime (checked at construction)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def __call__(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise FieldMismatchError(
                    f"cannot coerce F_{value.p} element into F_{self.p}")
            return value
        if isinstance(value, str):
            value = int(value)
        if isinstance(value, int):
            return FpElement(self.p, value)
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    @property
    def zero(self) -> FpElement:
        return FpElement(self.p, 0)

    @property
    def one(self) -> FpElement:
        return FpElement(self.p, 1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


#: The field of rational numbers (module-level singleton).
QQ = RationalField()
