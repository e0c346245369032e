"""Hat maps: index reductions Z -> ring that drive the graded family.

A hat map sends an integer index to a canonical representative in its
codomain ring: the balanced mod-3 map picks representatives {-1, 0, 1},
the identity map leaves integers alone (giving truncated Witt tables
downstream), ``ZModHat`` is the natural homomorphism onto Z_p, and
``RangeHat`` reduces mod p onto an arbitrary complete residue system.
A hat is its name ("mod3", "identity", "zmod:p", "modrange:p:{reps}"),
which spells out the map: two hats are equal, and hash alike, exactly
when they are of one class and have one name.

Besides evaluation, this module checks the algebraic properties a hat
map needs for the family construction to work (it must preserve
multiplication and "almost" preserve addition), each by a scan that
stops at its first failure, and scans the hatted Jacobi identity

    c_hat(i,j,k) + c_hat(j,k,i) + c_hat(k,i,j) = 0,
    where c(i,j,k) = (i - j)(i + j - k),

for counterexamples.  The scan walks one representative per cyclic
class of index triples (largest index first), since the sum above is
invariant under cyclic rotation; the first failing representative is
reported together with its three hat values.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .fields import PrimeField, QQ, is_prime

__all__ = [
    "BalancedMod3",
    "IdentityHat",
    "ZModHat",
    "RangeHat",
    "MOD3_BALANCED",
    "IDENTITY_HAT",
    "HatPropertyReport",
    "HatScanWitness",
    "hat_properties",
    "jacobi_hat_scan",
]


class _Hat:
    """Equality and hash by class and name, which spells out the map."""

    def __eq__(self, other):
        return type(other) is type(self) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


class _IntegerHat(_Hat):
    """A hat map whose codomain is Z itself: hat values are compared and
    summed as honest integers, and the scalars are Q."""

    def same(self, a: int, b: int) -> bool:
        return a == b

    def sum_is_zero(self, values: Iterable[int]) -> bool:
        return sum(values) == 0

    def default_field(self):
        return QQ


class BalancedMod3(_IntegerHat):
    """i mod 3 with representatives {-1, 0, 1}."""

    name = "mod3"

    def value(self, i: int) -> int:
        return (i + 1) % 3 - 1

    def __repr__(self):
        return "BalancedMod3()"


class IdentityHat(_IntegerHat):
    """The identity map on Z; reduces nothing."""

    name = "identity"

    def value(self, i: int) -> int:
        return i

    def __repr__(self):
        return "IdentityHat()"


class ZModHat(_Hat):
    """Natural ring homomorphism Z -> Z_p, residues in [0, p).

    Codomain arithmetic is mod p, so equality and zero tests reduce
    first; the default scalar field exists only for prime p.
    """

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("modulus must be at least 2")
        self.p = p

    @property
    def name(self) -> str:
        return f"zmod:{self.p}"

    def value(self, i: int) -> int:
        return i % self.p

    def same(self, a: int, b: int) -> bool:
        return (a - b) % self.p == 0

    def sum_is_zero(self, values: Iterable[int]) -> bool:
        return sum(values) % self.p == 0

    def default_field(self):
        if not is_prime(self.p):
            raise ValueError(
                f"Z_{self.p} is not a field (composite modulus); "
                "no scalar field available")
        return PrimeField(self.p)

    def __repr__(self):
        return f"ZModHat({self.p})"


class RangeHat(_IntegerHat):
    """Reduction mod p onto a chosen complete residue system in Z.

    Unlike ``ZModHat`` the codomain is Z itself, so sums and products of
    hat values are honest integers; this is how reductions with
    unbalanced representative sets (e.g. {0, 1} for p = 2) break the
    hatted Jacobi identity.
    """

    def __init__(self, p: int, representatives: Iterable[int]):
        reps = sorted(set(representatives))
        if len(reps) != p or sorted(r % p for r in reps) != list(range(p)):
            raise ValueError(
                f"representatives must form a complete residue system mod {p}")
        self.p = p
        self.representatives = tuple(reps)
        self._by_residue = {r % p: r for r in reps}

    @property
    def name(self) -> str:
        reps = ",".join(str(r) for r in self.representatives)
        return f"modrange:{self.p}:{{{reps}}}"

    def value(self, i: int) -> int:
        return self._by_residue[i % self.p]

    def __repr__(self):
        return f"RangeHat({self.p}, {self.representatives})"


MOD3_BALANCED = BalancedMod3()
IDENTITY_HAT = IdentityHat()


class HatPropertyReport(NamedTuple):
    """Which structural identities a hat map satisfies on a window.

    multiplicative: hat(ij) = hat(i) hat(j)
    add1:           hat(i+j) = hat(hat(i) + hat(j)) and hat(-i) = -hat(i)
    add2:           hat(i-j) = 0  iff  hat(i) = hat(j)
    witnesses:      {identity: its first failing point or pair}, for
                    each identity that fails
    """
    multiplicative: bool
    add1: bool
    add2: bool
    witnesses: dict


def hat_properties(hat, window: Iterable[int]) -> HatPropertyReport:
    """Exhaustively check the three hat identities over all window pairs.

    Each identity is one scan that stops at its first failure, its
    witness: the pairs in product order, and for add1 the single points
    (oddness) before the pairs.
    """
    points = sorted(set(window))
    pairs = list(itertools.product(points, repeat=2))
    v, same = hat.value, hat.same
    found = {
        "multiplicative": next(((i, j) for i, j in pairs
                                if not same(v(i * j), v(i) * v(j))), None),
        "add1": next(itertools.chain(
            ((i,) for i in points if not same(v(-i), -v(i))),
            ((i, j) for i, j in pairs if not same(v(i + j), v(v(i) + v(j))))), None),
        "add2": next(((i, j) for i, j in pairs
                      if (v(i - j) == 0) != same(v(i), v(j))), None),
    }
    witnesses = {key: w for key, w in found.items() if w is not None}
    return HatPropertyReport(*(key not in witnesses for key in found), witnesses)


class HatScanWitness(NamedTuple):
    """A triple where the hatted Jacobi identity fails."""
    i: int
    j: int
    k: int
    hat_values: tuple[int, int, int]


def _c(i: int, j: int, k: int) -> int:
    return (i - j) * (i + j - k)


def jacobi_hat_scan(hat, window: Iterable[int]) -> HatScanWitness | None:
    """Scan the hatted Jacobi identity over cyclic-class representatives.

    Returns the first representative triple (i, j, k), i = max index,
    whose hatted cyclic sum is nonzero, or None if the identity holds
    on the whole window.
    """
    points = sorted(set(window))
    for i in points:
        for j in points:
            if j > i:
                break
            for k in points:
                if k > i:
                    break
                values = (hat.value(_c(i, j, k)),
                          hat.value(_c(j, k, i)),
                          hat.value(_c(k, i, j)))
                if not hat.sum_is_zero(values):
                    return HatScanWitness(i, j, k, values)
    return None
