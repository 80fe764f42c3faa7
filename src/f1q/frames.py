"""State frames over a level-l monoid field: vectors, the partial standard
form, orthogonality, perp spaces, projective rays, and tensor products.

A state is any m-tuple of level-l elements.  Because the scalars have no
addition, the standard form is partial: it is defined only when at most one
summand is nonzero, and an undefined form is returned as ``None`` rather
than raised, so orthogonality stays a total predicate.

Tensor products are row-major: entry (i, j) of x (x) y lands at flat index
i * dim(y) + j.  Every index convention downstream (the cloner's pins,
the deletion operator's kept positions) assumes this flattening.

The public constructor ``StateVector(...)``, and so ``state`` and
``basis_state``, checks its entries; kernels over one level's interned
elements (tensor, scale, the enumerations, ``apply``) skip it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .budget import check_budget
from .field import (
    F1Element,
    InvolutionSpec,
    check_conjugation,
    elements,
    interned,
    unit,
    zero,
)

__all__ = [
    "StateVector",
    "ProjectiveRay",
    "state",
    "basis_state",
    "standard_form",
    "orthogonal",
    "perp_space",
    "ray_of",
    "enumerate_vectors",
    "iter_rays",
    "enumerate_rays",
    "simple_rays",
    "ray_count",
    "tensor",
]


@dataclass(frozen=True)
class StateVector:
    """An m-tuple of level-l elements; the all-zero tuple is representable
    but is not a state (rays and perp spaces reject it)."""

    entries: tuple[F1Element, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("state vectors must have dimension >= 1")
        level = entries[0].order
        for e in entries:
            if e.order != level:
                raise ValueError("all entries of a state vector must share one level")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def order(self) -> int:
        return self.entries[0].order

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[F1Element]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> F1Element:
        return self.entries[i]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e.exp is not None)

    def cosupport(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e.exp is None)

    @property
    def is_zero(self) -> bool:
        return _leading_exp(self) is None

    @property
    def is_simple(self) -> bool:
        return len(self.support()) == 1

    def scale(self, s: F1Element) -> "StateVector":
        if not s.is_unit:
            raise ValueError("states scale by units only")
        l = self.order
        if s.order != l:
            raise ValueError(f"cannot multiply elements of levels {s.order} and {l}")
        table, d = interned(l), s.exp
        return _vector(
            tuple(e if e.exp is None else table[(e.exp + d) % l] for e in self.entries)
        )

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + f")@{self.order}"


def _vector(entries: tuple[F1Element, ...]) -> StateVector:
    """``StateVector(entries)`` unchecked, for kernels whose nonempty tuple
    holds one level's interned elements, or entries of checked vectors."""
    v = object.__new__(StateVector)
    object.__setattr__(v, "entries", entries)
    return v


def state(exps: Sequence[int | None], l: int) -> StateVector:
    """Build a vector from exponents, with None marking zero entries."""
    return StateVector(tuple(zero(l) if e is None else unit(e, l) for e in exps))


def basis_state(i: int, m: int, l: int, exp: int = 0) -> StateVector:
    """The simple point with w^exp at index i and zeros elsewhere."""
    if not 0 <= i < m:
        raise ValueError(f"index {i} out of range for dimension {m}")
    return StateVector(tuple(unit(exp, l) if j == i else zero(l) for j in range(m)))


def _check_compatible(x: StateVector, y: StateVector) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if x.order != y.order:
        raise ValueError(f"level mismatch: {x.order} vs {y.order}")


def standard_form(
    x: StateVector, y: StateVector, sigma: InvolutionSpec | None = None
) -> F1Element | None:
    """The partial sesquilinear form sum_i sigma(x_i) y_i.

    With at most one nonzero summand the sum needs no addition: zero
    summands give the zero element, one gives that term, and two or more
    give ``None``, since the sum does not exist.  ``sigma=None`` is the
    identity (the degenerate involution of the level-2 theory, which admits
    no nontrivial one).
    """
    _check_compatible(x, y)
    d = check_conjugation(sigma, x.order)
    terms = []
    for xi, yi in zip(x, y):
        if xi.is_unit and yi.is_unit:
            terms.append(xi**d * yi)
            if len(terms) > 1:
                return None
    return terms[0] if terms else zero(x.order)


def orthogonal(x: StateVector, y: StateVector) -> bool:
    """True iff the supports are disjoint; equivalently the form is zero."""
    _check_compatible(x, y)
    return not set(x.support()) & set(y.support())


def perp_space(x: StateVector, budget: int | None = None) -> Iterator[StateVector]:
    """The orthogonal complement of a nonzero vector, one member at a time.

    y is orthogonal to x iff supp(y) lies in ``x.cosupport()``, so the
    members are the (l+1)^k vectors supported there, k = |cosupp(x)|: the
    zero vector first, then in lexicographic order.  The count is checked
    against the budget at the call.
    """
    if x.is_zero:
        raise ValueError("the zero vector has no perp space")
    l, k = x.order, len(x.cosupport())
    what = f"vectors of a perp space of dimension {k}"
    check_budget((l + 1) ** k, budget, what=what)
    choices = elements(l) if k else ()  # no free slot: list none of the l + 1
    slots = (choices if e.exp is None else (zero(l),) for e in x.entries)
    return map(_vector, itertools.product(*slots))


@dataclass(frozen=True)
class ProjectiveRay:
    """A nonzero vector up to one global unit factor, held by the canonical
    representative whose first nonzero entry is w^0."""

    representative: StateVector

    def __post_init__(self) -> None:
        lead = _leading_exp(self.representative)
        if lead is None:
            raise ValueError("the zero vector spans no ray")
        if lead != 0:
            raise ValueError("ray representative must lead with w^0; use ray_of")

    @property
    def dim(self) -> int:
        return self.representative.dim

    @property
    def order(self) -> int:
        return self.representative.order

    @property
    def is_simple(self) -> bool:
        return self.representative.is_simple

    def __str__(self) -> str:
        return f"[{self.representative}]"


def _leading_exp(x: StateVector) -> int | None:
    """Exponent of the first nonzero entry, or None for the zero vector."""
    for e in x.entries:
        if e.exp is not None:
            return e.exp
    return None


def ray_of(x: StateVector) -> ProjectiveRay:
    """Canonicalize: scale so the first nonzero entry has exponent 0.

    Every global-scalar orbit contains exactly one such representative, so
    ray equality is representative equality.
    """
    lead = _leading_exp(x)
    if lead is None:
        raise ValueError("the zero vector spans no ray")
    if lead:
        x = x.scale(interned(x.order)[-lead % x.order])
    return ProjectiveRay(x)


def enumerate_vectors(m: int, l: int, budget: int | None = None) -> list[StateVector]:
    """All nonzero vectors of dimension m at level l, in lexicographic entry
    order (zero before w^0 before w^1 ...).  The (l+1)^m candidates are
    checked against the budget before any is built."""
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    check_budget((l + 1) ** m, budget, what=f"vectors of dimension {m} at level {l}")
    combos = itertools.product(elements(l), repeat=m)
    next(combos)  # the zero vector, which sorts first
    return [_vector(combo) for combo in combos]


def iter_rays(m: int, l: int, budget: int | None = None) -> Iterator[ProjectiveRay]:
    """All ((l+1)^m - 1)/l rays, in lexicographic order of representatives,
    built one at a time.

    Only the canonical representatives are built: i leading zeros, then
    w^0, then any tail; more leading zeros sort first.  The arguments and
    the ray count are checked against the budget at the call.
    """
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    check_budget(ray_count(m, l), budget, what=f"rays of dimension {m} at level {l}")
    choices = elements(l)
    heads = ((choices[0],) * i + (choices[1],) for i in range(m - 1, -1, -1))
    return (
        ProjectiveRay(_vector(head + tail))
        for head in heads
        for tail in itertools.product(choices, repeat=m - len(head))
    )


def enumerate_rays(m: int, l: int, budget: int | None = None) -> list[ProjectiveRay]:
    """``iter_rays`` as a list."""
    return list(iter_rays(m, l, budget))


def ray_count(m: int, l: int) -> int:
    return ((l + 1) ** m - 1) // l


def simple_rays(m: int, l: int) -> list[ProjectiveRay]:
    """The m simple rays, one per coordinate."""
    return [ProjectiveRay(basis_state(i, m, l)) for i in range(m)]


def tensor(x: StateVector, y: StateVector) -> StateVector:
    """Row-major tensor product: entry (i, j) at flat index i * dim(y) + j.

    Row i is x_i * y, so it depends on the exponent of x_i alone.  Each
    distinct row, at most l + 1 of them with the zero row, is built once
    and shared by every i with that exponent; the w^0 row is y itself.
    """
    l = x.order
    if l != y.order:
        raise ValueError(f"level mismatch: {l} vs {y.order}")
    table = interned(l)
    rows = {None: (table[None],) * y.dim, 0: y.entries}
    out: list[F1Element] = []
    for xi in x.entries:
        a = xi.exp
        row = rows.get(a)
        if row is None:
            row = rows[a] = [
                yj if yj.exp is None else table[(a + yj.exp) % l] for yj in y.entries
            ]
        out += row
    return _vector(tuple(out))
