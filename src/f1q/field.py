"""Exact arithmetic for the monoid fields F1(l) = {0} | mu_l.

A level-l field has one absorbing zero and a cyclic group of l units.  Units
are stored as exponents modulo l, never as floating-point roots of unity, so
every operation here is exact integer arithmetic at a fixed finite level.
There is no addition: multiplication is the entire algebraic structure.

The plain two-element case is level l = 1 (mu_1 = {1}); it gets no special
casing anywhere.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from math import gcd

__all__ = [
    "F1Element",
    "FrobeniusMap",
    "InvolutionSpec",
    "zero",
    "one",
    "unit",
    "units",
    "elements",
    "multiply",
    "frobenius",
    "embed",
    "parse_element",
    "totient",
    "automorphism_group",
    "automorphism_group_brute_force",
    "brute_force_exponents",
    "classify_involution",
    "check_conjugation",
    "involution_brute_force",
]

_SCALAR_RE = re.compile(r"^(0|w\^-?\d+)$")


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

    @property
    def sort_key(self) -> int:
        """Deterministic ordering: 0 < w^0 < w^1 < ... within one level."""
        return 0 if self.exp is None else 1 + self.exp

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


def multiply(x: F1Element, y: F1Element) -> F1Element:
    """Zero-absorbing commutative product; units form the cyclic group mu_l."""
    return x * y


def frobenius(d: int, x: F1Element) -> F1Element:
    """The power map u -> u^d.

    At level l, the fixed points of ``frobenius(l + 1, .)`` on any higher
    level containing l are exactly the level-l elements.
    """
    if d < 1:
        raise ValueError(f"frobenius degree must be >= 1, got {d}")
    return x**d


def embed(x: F1Element, target_level: int) -> F1Element:
    """Explicit subfield embedding, scaling exponents by target/source.

    Requires the source level to divide the target level; there is no
    implicit coercion anywhere else, which keeps exponent arithmetic from
    silently aliasing across levels.
    """
    if target_level % x.order != 0:
        raise ValueError(f"level {x.order} does not embed into level {target_level}")
    if x.exp is None:
        return zero(target_level)
    return F1Element(target_level, x.exp * (target_level // x.order))


def parse_element(token: str, l: int) -> F1Element:
    """Parse a scalar token, ``0`` or ``w^k``, at level l."""
    token = token.strip()
    if not _SCALAR_RE.match(token):
        raise ValueError(f"bad scalar token {token!r} (want '0' or 'w^k')")
    if token == "0":
        return zero(l)
    return unit(int(token[2:]), l)


@dataclass(frozen=True)
class FrobeniusMap:
    """The named power map u -> u^degree on a fixed level."""

    degree: int
    source_level: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("frobenius degree must be >= 1")
        if self.source_level < 1:
            raise ValueError("source level must be >= 1")

    def __call__(self, x: F1Element) -> F1Element:
        if x.order != self.source_level:
            raise ValueError(
                f"map is defined at level {self.source_level}, got level {x.order}"
            )
        return x**self.degree


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


def automorphism_group_brute_force(l: int, *, bound: int = 16) -> list[tuple[int, ...]]:
    """Every multiplication-preserving permutation of {0} | mu_l.

    Backtracking over all permutations of the l + 1 elements, pruning partial
    assignments as soon as a fully-assigned product triple breaks
    phi(a*b) = phi(a)*phi(b).  Deliberately independent of the gcd
    characterization in :func:`automorphism_group` so the two can be cross
    checked; elements are coded 0 for zero and 1 + e for the unit w^e, and
    each result is the tuple of image codes.
    """
    if l > bound:
        raise ValueError(f"brute-force automorphism search capped at level {bound}")
    n = l + 1

    def code_mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return 1 + (a - 1 + b - 1) % l

    table = [[code_mul(a, b) for b in range(n)] for a in range(n)]
    images = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []

    def consistent() -> bool:
        for a in range(n):
            fa = images[a]
            if fa < 0:
                continue
            for b in range(n):
                fb = images[b]
                if fb < 0:
                    continue
                fp = images[table[a][b]]
                if fp >= 0 and fp != table[fa][fb]:
                    return False
        return True

    def extend(pos: int) -> None:
        if pos == n:
            found.append(tuple(images))
            return
        for cand in range(n):
            if used[cand]:
                continue
            images[pos] = cand
            used[cand] = True
            if consistent():
                extend(pos + 1)
            images[pos] = -1
            used[cand] = False

    extend(0)
    return found


def brute_force_exponents(l: int, *, bound: int = 16) -> list[int]:
    """Reduce each brute-force automorphism to the exponent d it realizes."""
    exps = []
    for images in automorphism_group_brute_force(l, bound=bound):
        if l == 1:
            exps.append(1)
            continue
        d = images[2] - 1  # image code of the generator w^1
        exps.append(l if d == 0 else d)  # canonical representative in [1, l]
    return sorted(exps)


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


def check_conjugation(sigma: InvolutionSpec | None, level: int) -> None:
    """Reject a conjugation that is not a valid involution at ``level``.

    ``None`` is the identity conjugation and passes at every level.
    """
    if sigma is None:
        return
    if not sigma.valid:
        raise ValueError(f"({sigma.m}, {sigma.r}) is not a valid involution")
    if sigma.m != level:
        raise ValueError(
            f"involution lives at level {sigma.m}, cannot act at level {level}"
        )


def involution_brute_force(m: int, r: int, *, bound: int = 64) -> bool:
    """Element-by-element oracle for :func:`classify_involution`.

    Checks directly on all m + 1 elements that v -> v^(r+1) is a bijective
    multiplicative map whose square is the identity and which is not the
    identity.
    """
    if m < 1 or r < 1:
        raise ValueError("m and r must be >= 1")
    if m > bound:
        raise ValueError(f"brute-force involution check capped at level {bound}")
    elems = elements(m)
    image = {x: x ** (r + 1) for x in elems}
    if len(set(image.values())) != len(elems):
        return False
    for x in elems:
        for y in elems:
            if image[x * y] != image[x] * image[y]:
                return False
    if any(image[image[x]] != x for x in elems):
        return False
    return any(image[x] != x for x in elems)
