"""State frames over a level-l monoid field: vectors, the partial standard
form, orthogonality, perp spaces, projective rays, and tensor products.

A state is any m-tuple of level-l elements.  Because the scalars have no
addition, the standard form is partial: it is defined only when at most one
summand is nonzero, and that partiality is modelled as an explicit
``FormValue`` variant rather than an exception, so orthogonality stays a
total predicate.

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
    "FormValue",
    "PerpSpace",
    "ProjectiveRay",
    "state",
    "basis_state",
    "standard_form",
    "orthogonal",
    "perp_space",
    "ray_of",
    "enumerate_vectors",
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


@dataclass(frozen=True)
class FormValue:
    """Result of the partial standard form: a defined element or Undefined.

    Undefined arises exactly when two or more summands are nonzero, i.e.
    when the supports overlap in two or more places.
    """

    value: F1Element | None

    @property
    def is_defined(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return "undefined" if self.value is None else str(self.value)


def _check_compatible(x: StateVector, y: StateVector) -> None:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if x.order != y.order:
        raise ValueError(f"level mismatch: {x.order} vs {y.order}")


def standard_form(
    x: StateVector, y: StateVector, sigma: InvolutionSpec | None = None
) -> FormValue:
    """The partial sesquilinear form sum_i sigma(x_i) y_i.

    With at most one nonzero summand the sum needs no addition: zero
    summands give Defined(0), one gives that term, two or more give
    Undefined.  ``sigma=None`` is the identity (the degenerate involution of
    the level-2 theory, which admits no nontrivial one).
    """
    _check_compatible(x, y)
    d = check_conjugation(sigma, x.order)
    terms = []
    for xi, yi in zip(x, y):
        if xi.is_unit and yi.is_unit:
            terms.append(xi**d * yi)
            if len(terms) > 1:
                return FormValue(None)
    return FormValue(terms[0] if terms else zero(x.order))


def orthogonal(x: StateVector, y: StateVector) -> bool:
    """True iff the supports are disjoint; equivalently the form is Defined(0)."""
    _check_compatible(x, y)
    return not set(x.support()) & set(y.support())


@dataclass(frozen=True)
class PerpSpace:
    """The orthogonal complement of a nonzero vector.

    Membership depends only on supports: y is in x-perp iff supp(y) is
    contained in the cosupport of x, so the complement is a frame of
    dimension |cosupp(x)| holding (l+1)^dim vectors including the zero
    vector.
    """

    of: StateVector
    free_indices: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.free_indices)

    def contains(self, y: StateVector) -> bool:
        _check_compatible(self.of, y)
        return set(y.support()) <= set(self.free_indices)

    @property
    def vector_count(self) -> int:
        return (self.of.order + 1) ** self.dimension

    def vectors(self, budget: int | None = None) -> Iterator[StateVector]:
        """Every member, the zero vector first, in lexicographic order.

        ``vector_count`` is checked against the budget at call time.
        """
        what = f"vectors of a perp space of dimension {self.dimension}"
        check_budget(self.vector_count, budget, what=what)
        return self._vectors()

    def _vectors(self) -> Iterator[StateVector]:
        l = self.of.order
        entries = [zero(l)] * self.of.dim
        for combo in itertools.product(elements(l), repeat=self.dimension):
            for i, e in zip(self.free_indices, combo):
                entries[i] = e
            yield _vector(tuple(entries))


def perp_space(x: StateVector) -> PerpSpace:
    if x.is_zero:
        raise ValueError("the zero vector has no perp space")
    return PerpSpace(of=x, free_indices=x.cosupport())


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


def enumerate_rays(m: int, l: int, budget: int | None = None) -> list[ProjectiveRay]:
    """All ((l+1)^m - 1)/l rays, in lexicographic order of representatives.

    Only the canonical representatives are built: i leading zeros, then
    w^0, then any tail; more leading zeros sort first.  The ray count is
    checked against the budget before any is built.
    """
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    check_budget(ray_count(m, l), budget, what=f"rays of dimension {m} at level {l}")
    choices = elements(l)
    out = []
    for i in range(m - 1, -1, -1):
        head = (choices[0],) * i + (choices[1],)
        for tail in itertools.product(choices, repeat=m - 1 - i):
            out.append(ProjectiveRay(_vector(head + tail)))
    return out


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
