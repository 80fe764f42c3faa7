"""Exact arithmetic for the monoid fields F1(l) = {0} | mu_l.

A level-l field has one absorbing zero and a cyclic group of l units.  Units
are stored as exponents modulo l, never as floating-point roots of unity, so
every operation here is exact integer arithmetic at a fixed finite level.
There is no addition: multiplication is the entire algebraic structure.

The plain two-element case is level l = 1 (mu_1 = {1}); it gets no special
casing anywhere.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from math import gcd

__all__ = [
    "F1Element",
    "InvolutionSpec",
    "zero",
    "one",
    "unit",
    "units",
    "elements",
    "totient",
    "automorphism_group",
    "classify_involution",
    "check_conjugation",
    "unitary_exponents",
]


class F1Element:
    """Zero or a unit w^exp at a fixed level.

    ``exp`` is None for zero and otherwise reduced into [0, order).  Elements
    at different levels never compare equal and refuse to multiply.

    Elements are interned and immutable: there is one object per (level,
    exponent), made the first time it is asked for, so the constructor,
    products, powers and inverses look up shared objects instead of building
    new ones.  Equality and hashing are still by value.
    """

    __slots__ = ("order", "exp")

    def __new__(cls, order: int, exp: int | None) -> "F1Element":
        return interned(order)[None if exp is None else exp % order]

    def __post_init__(self) -> None:
        """Intern a new element, so every later request returns this object."""
        _LEVELS[self.order][self.exp] = self

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return F1Element, (self.order, self.exp)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not F1Element:
            return NotImplemented
        return self is other or (self.order, self.exp) == (other.order, other.exp)

    def __hash__(self) -> int:
        return hash((self.order, self.exp))

    @property
    def is_zero(self) -> bool:
        return self.exp is None

    @property
    def is_unit(self) -> bool:
        return self.exp is not None

    def __mul__(self, other: "F1Element") -> "F1Element":
        if not isinstance(other, F1Element):
            return NotImplemented
        order = self.order
        if order != other.order:
            raise ValueError(
                f"cannot multiply elements of levels {order} and {other.order}"
            )
        if self.exp is None:
            return self
        if other.exp is None:
            return other
        return _LEVELS[order][(self.exp + other.exp) % order]

    def __pow__(self, d: int) -> "F1Element":
        if self.exp is None:
            if d < 1:
                raise ValueError("0^d is only defined for d >= 1")
            return self
        return _LEVELS[self.order][self.exp * d % self.order]

    def inverse(self) -> "F1Element":
        if self.exp is None:
            raise ZeroDivisionError("zero has no inverse")
        return _LEVELS[self.order][-self.exp % self.order]

    def __str__(self) -> str:
        return "0" if self.exp is None else f"w^{self.exp}"

    def __repr__(self) -> str:
        return f"F1Element(l={self.order}, {self})"


class _Level(dict):
    """The elements of one level made so far, keyed by reduced exponent
    (None for zero); a missing key makes and interns its element."""

    def __init__(self, order: int) -> None:
        super().__init__()
        self.order = order

    def __missing__(self, exp: int | None) -> F1Element:
        if exp is not None and not 0 <= exp < self.order:
            raise KeyError(exp)
        x = object.__new__(F1Element)
        object.__setattr__(x, "order", self.order)
        object.__setattr__(x, "exp", exp)
        x.__post_init__()
        return x


_LEVELS: dict[int, _Level] = {}


def interned(l: int) -> dict[int | None, F1Element]:
    """The level-l elements by exponent: ``interned(l)[e]`` is ``unit(e, l)``
    for e in [0, l), and ``interned(l)[None]`` is ``zero(l)``.

    Entries are made on first use, one at a time, so a huge level costs only
    the elements actually used.  Kernels that work on exponents index it
    with already reduced keys.
    """
    try:
        return _LEVELS[l]
    except KeyError:
        if l < 1:
            raise ValueError(f"field level must be >= 1, got {l}") from None
        return _LEVELS.setdefault(l, _Level(l))


def zero(l: int) -> F1Element:
    return F1Element(l, None)


def one(l: int) -> F1Element:
    return F1Element(l, 0)


def unit(exp: int, l: int) -> F1Element:
    return F1Element(l, exp)


def units(l: int) -> list[F1Element]:
    """The l units, in exponent order."""
    return [F1Element(l, e) for e in range(l)]


def elements(l: int) -> list[F1Element]:
    """All l + 1 elements: zero first, then units in exponent order."""
    return [zero(l), *units(l)]


def totient(l: int) -> int:
    """Euler's phi, by the direct gcd count (l is desk-scale throughout)."""
    return sum(1 for d in range(1, l + 1) if gcd(d, l) == 1)


def automorphism_group(l: int) -> list[int]:
    """Exponents d naming the automorphisms u -> u^d of the level-l field.

    These are exactly the d in [1, l] coprime to l: the automorphisms of a
    cyclic unit group, so the group is the multiplicative units of Z/lZ and
    has order totient(l).
    """
    if l < 1:
        raise ValueError("level must be >= 1")
    return [d for d in range(1, l + 1) if gcd(d, l) == 1]


@dataclass(frozen=True)
class InvolutionSpec:
    """The candidate involution v -> v^(r+1) on the level-m field.

    ``sub_ok`` is the divisibility m | r(r+2) (the map squares to the
    identity) and ``ntriv_ok`` is m does-not-divide r (the map is not the
    identity).  The pair is a genuine nontrivial involution exactly when both
    hold; bijectivity then comes for free since any common prime of r + 1 and
    m would divide both (r+1)^2 and (r+1)^2 - 1.
    """

    m: int
    r: int
    sub_ok: bool
    ntriv_ok: bool

    @property
    def valid(self) -> bool:
        return self.sub_ok and self.ntriv_ok

    @property
    def fixed_field_order(self) -> int:
        """Level of the fixed subfield: v^r = 1 cuts out mu_gcd(m, r)."""
        return gcd(self.m, self.r)

    def __call__(self, x: F1Element) -> F1Element:
        if x.order != self.m:
            raise ValueError(f"involution lives at level {self.m}, got level {x.order}")
        return x ** (self.r + 1)

    def fixed_elements(self) -> list[F1Element]:
        return [x for x in elements(self.m) if self(x) == x]


def classify_involution(m: int, r: int) -> InvolutionSpec:
    """Arithmetic classification of v -> v^(r+1) at level m."""
    if m < 1 or r < 1:
        raise ValueError("m and r must be >= 1")
    return InvolutionSpec(m=m, r=r, sub_ok=(r * (r + 2)) % m == 0, ntriv_ok=r % m != 0)


def check_conjugation(sigma: InvolutionSpec | None, level: int) -> int:
    """Reject a conjugation that is not a valid involution at ``level``, and
    return its exponent: the d with sigma(w^e) = w^(d * e).

    ``None`` is the identity conjugation, d = 1, and passes at every level;
    v -> v^(r+1) has d = r + 1.  This is the one place that turns a
    conjugation into exponent arithmetic.
    """
    if sigma is None:
        return 1
    if not sigma.valid:
        raise ValueError(f"({sigma.m}, {sigma.r}) is not a valid involution")
    if sigma.m != level:
        raise ValueError(
            f"involution lives at level {sigma.m}, cannot act at level {level}"
        )
    return sigma.r + 1


def unitary_exponents(sigma: InvolutionSpec | None, level: int) -> range:
    """Exponents e of the unitary scalars, the units with sigma(s) * s = 1.

    sigma(w^e) * w^e = w^((d + 1) * e), so these are the multiples of
    l / gcd(d + 1, l): a subgroup of order gcd(d + 1, l), given in closed
    form without scanning the l units.
    """
    d = check_conjugation(sigma, level)
    return range(0, level, level // gcd(d + 1, level))
