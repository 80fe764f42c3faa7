"""Monomial matrices: the only linear operators a frame without addition
admits.

An invertible operator is a permutation together with one unit scalar per
column, stored exactly that way so the one-nonzero-per-row-and-column
invariant is structural rather than checked after the fact.  The singular
relaxation ``SubunitalMatrix`` allows empty rows and columns (a sparse cell
list) but still never produces an undefined sum when applied to a state.

Text format for both kinds: a ``dim@l`` header line, then one ``row col w^k``
triple per nonzero entry with 1-based indices.  The JSON mirror is
``{"dim": ..., "l": ..., "entries": [[row, col, "w^k"], ...]}``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterable, Iterator, Sequence, Union

from .budget import check_budget
from .field import (
    F1Element,
    InvolutionSpec,
    check_conjugation,
    classify_involution,
    interned,
    one,
    unit,
    unitary_exponents,
    zero,
)
from .frames import StateVector, _vector

__all__ = [
    "MonomialMatrix",
    "SubunitalMatrix",
    "AnyMatrix",
    "iter_GL",
    "enumerate_GL",
    "gl_order",
    "is_unitary",
    "unitary_order",
    "iter_unitaries",
    "unitary_group",
    "is_observable",
    "enumerate_subunital",
    "subunital_count",
    "format_matrix",
    "matrix_to_json",
]


@dataclass(frozen=True)
class MonomialMatrix:
    """dim x dim matrix with exactly one unit entry per row and column.

    ``perm[j]`` is the row of column j's nonzero entry and ``scalars[j]`` its
    value, so the matrix sends the j-th basis vector to scalars[j] times the
    perm[j]-th one.
    """

    order: int
    perm: tuple[int, ...]
    scalars: tuple[F1Element, ...]

    def __post_init__(self) -> None:
        perm = tuple(self.perm)
        scalars = tuple(self.scalars)
        if not perm or self.order < 1:
            raise ValueError(f"need dim and level >= 1, got {len(perm)}@{self.order}")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm} is not a permutation")
        if len(scalars) != len(perm):
            raise ValueError("need one scalar per column")
        for s in scalars:
            if s.order != self.order:
                raise ValueError("scalar level mismatch")
            if not s.is_unit:
                raise ValueError("monomial scalars must be units")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "scalars", scalars)

    @property
    def dim(self) -> int:
        return len(self.perm)

    @property
    def cells(self) -> tuple[tuple[int, int, F1Element], ...]:
        """The (row, col, scalar) triples in row order, as ``SubunitalMatrix``
        stores them."""
        return tuple(sorted(zip(self.perm, range(self.dim), self.scalars)))

    @classmethod
    def identity(cls, dim: int, l: int) -> "MonomialMatrix":
        return cls(l, tuple(range(dim)), tuple(one(l) for _ in range(dim)))

    @classmethod
    def from_permutation(cls, perm: Sequence[int], l: int) -> "MonomialMatrix":
        return cls(l, tuple(perm), tuple(one(l) for _ in perm))

    def entry(self, i: int, j: int) -> F1Element:
        return self.scalars[j] if self.perm[j] == i else zero(self.order)

    def apply(self, x: StateVector) -> StateVector:
        if x.dim != self.dim or x.order != self.order:
            raise ValueError("operator/state dimension or level mismatch")
        l = self.order
        table = interned(l)
        out = [table[None]] * self.dim
        for i, s, xj in zip(self.perm, self.scalars, x.entries):
            if xj.exp is not None:
                out[i] = table[(s.exp + xj.exp) % l]
        return _vector(tuple(out))

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if self.dim != other.dim or self.order != other.order:
            raise ValueError("operator dimension or level mismatch")
        perm = tuple(self.perm[other.perm[j]] for j in range(self.dim))
        scalars = tuple(
            self.scalars[other.perm[j]] * other.scalars[j] for j in range(self.dim)
        )
        return MonomialMatrix(self.order, perm, scalars)

    def transpose(self) -> "MonomialMatrix":
        inv = [0] * self.dim
        for j, i in enumerate(self.perm):
            inv[i] = j
        return MonomialMatrix(
            self.order, tuple(inv), tuple(self.scalars[inv[i]] for i in range(self.dim))
        )

    def conj(self, sigma: InvolutionSpec | None) -> "MonomialMatrix":
        d = check_conjugation(sigma, self.order)
        return MonomialMatrix(self.order, self.perm, tuple(s**d for s in self.scalars))

    def inverse(self) -> "MonomialMatrix":
        inv = [0] * self.dim
        scalars = [self.scalars[0]] * self.dim
        for j, i in enumerate(self.perm):
            inv[i] = j
            scalars[i] = self.scalars[j].inverse()
        return MonomialMatrix(self.order, tuple(inv), tuple(scalars))


@dataclass(frozen=True)
class SubunitalMatrix:
    """Square matrix with at most one unit entry per row and per column.

    Stored as a sorted tuple of (row, col, scalar) cells; rows or columns may
    be empty, which is what lets these act as singular unitary-like
    operators.  Applying one to a state never needs addition: each output
    coordinate receives at most one term.
    """

    dim: int
    order: int
    cells: tuple[tuple[int, int, F1Element], ...]

    def __post_init__(self) -> None:
        if self.dim < 1 or self.order < 1:
            raise ValueError(f"need dim and level >= 1, got {self.dim}@{self.order}")
        cells = tuple(sorted(self.cells, key=lambda c: (c[0], c[1])))
        rows = [c[0] for c in cells]
        cols = [c[1] for c in cells]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("at most one nonzero entry per row and per column")
        for i, j, s in cells:
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"cell ({i}, {j}) out of range for dim {self.dim}")
            if s.order != self.order or not s.is_unit:
                raise ValueError("cell scalars must be units at the matrix level")
        object.__setattr__(self, "cells", cells)

    def apply(self, x: StateVector) -> StateVector:
        if x.dim != self.dim or x.order != self.order:
            raise ValueError("operator/state dimension or level mismatch")
        l = self.order
        table = interned(l)
        out = [table[None]] * self.dim
        entries = x.entries
        for i, j, s in self.cells:
            xj = entries[j].exp
            if xj is not None:
                out[i] = table[(s.exp + xj) % l]
        return _vector(tuple(out))

    @property
    def is_monomial(self) -> bool:
        return len(self.cells) == self.dim

    def to_monomial(self) -> MonomialMatrix:
        if not self.is_monomial:
            raise ValueError("matrix has empty rows or columns")
        perm = [0] * self.dim
        scalars: list[F1Element] = [self.cells[0][2]] * self.dim
        for i, j, s in self.cells:
            perm[j] = i
            scalars[j] = s
        return MonomialMatrix(self.order, tuple(perm), tuple(scalars))

    def __str__(self) -> str:
        return format_matrix(self)


AnyMatrix = Union[MonomialMatrix, SubunitalMatrix]


def gl_order(m: int, l: int) -> int:
    """|GL(m)| at level l: the wreath product count l^m * m!."""
    return l**m * factorial(m)


def iter_GL(m: int, l: int, budget: int | None = None) -> Iterator[MonomialMatrix]:
    """All invertible monomial matrices, permutations outer, scalars inner,
    built one at a time; arguments and budget are checked at the call, and
    each permutation once for all its l^m members (see ``_wreath``)."""
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    check_budget(gl_order(m, l), budget, what=f"GL({m}) at level {l}")
    return _wreath(m, l, range(l))


def enumerate_GL(m: int, l: int, budget: int | None = None) -> list[MonomialMatrix]:
    """``iter_GL`` as a list."""
    return list(iter_GL(m, l, budget))


def is_unitary(a: AnyMatrix, sigma: InvolutionSpec | None = None) -> bool:
    """Whether sigma(A^T) A is the identity.

    Any singular matrix fails; for a monomial matrix the product collapses to
    the diagonal of the per-column values sigma(s) * s, so each column's
    exponent must be one of the ``unitary_exponents``.
    """
    if isinstance(a, SubunitalMatrix):
        if not a.is_monomial:
            return False
        a = a.to_monomial()
    allowed = unitary_exponents(sigma, a.order)
    return all(s.exp in allowed for s in a.scalars)


def unitary_order(m: int, l: int, sigma: InvolutionSpec | None = None) -> int:
    """|U(m)| at level l: m! times |U|^m for the unitary scalar subgroup U."""
    return factorial(m) * len(unitary_exponents(sigma, l)) ** m


def iter_unitaries(
    m: int, l: int, sigma: InvolutionSpec | None = None, budget: int | None = None
) -> Iterator[MonomialMatrix]:
    """The unitary monomial matrices, permutations outer, scalars inner.

    The group is the wreath product of the unitary scalar subgroup with S_m,
    so it is generated directly rather than filtered out of GL; the order is
    the same as filtering ``iter_GL`` with ``is_unitary``.  Arguments
    and the budget are checked at call time, before anything is built; the
    unitary scalars once and each permutation once (see ``_wreath``).
    """
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    check_budget(unitary_order(m, l, sigma), budget, what=f"U({m}) at level {l}")
    return _wreath(m, l, unitary_exponents(sigma, l))


def _wreath(
    m: int, l: int, exps: Sequence[int], perms: Iterable[tuple[int, ...]] | None = None
) -> Iterator[MonomialMatrix]:
    """The wreath product of the units w^e, e in ``exps``, with S_m:
    ``iter_unitaries`` with the unitary exponents, ``iter_GL`` with every
    exponent.  The permutations are outer, in lexicographic order unless
    ``perms`` is given, and the column scalars inner; each member is built
    only when it is reached.  Each scalar is checked once, as a unit at level
    l, and each permutation once, by the rule of ``MonomialMatrix``; a member
    pairs them, so it is valid by construction and skips ``__post_init__``.
    """
    scalars = [interned(l)[e] for e in exps]
    if m < 1 or not all(s.is_unit for s in scalars):
        raise ValueError(f"need m >= 1 and unit scalars, got m={m}, exponents {exps}")
    rows = list(range(m))
    new, set_field = object.__new__, object.__setattr__
    for perm in itertools.permutations(rows) if perms is None else map(tuple, perms):
        if sorted(perm) != rows:
            raise ValueError(f"{perm} is not a permutation")
        for column_scalars in itertools.product(scalars, repeat=m):
            member = new(MonomialMatrix)
            set_field(member, "order", l)
            set_field(member, "perm", perm)
            set_field(member, "scalars", column_scalars)
            yield member


def unitary_group(m: int, r: int, budget: int | None = None) -> list[MonomialMatrix]:
    """The unitary group at level r(r+2) under v -> v^(r+1).

    Every member's scalars satisfy s^(r+2) = 1 and the order is
    (r+2)^m * m!: the wreath product mu_(r+2) wr S_m, built directly.  The
    test suite checks it against filtering all of GL.
    """
    l = r * (r + 2)
    return list(iter_unitaries(m, l, classify_involution(l, r), budget))


def is_observable(h: AnyMatrix, sigma: InvolutionSpec | None = None) -> bool:
    """Whether H equals sigma(H^T), the Hermitian condition.

    Any singular matrix fails.  sigma(H^T) holds sigma(s_j) at (j, perm[j]),
    so H = sigma(H^T) exactly when perm is an involution and, for every
    column j, s_(perm[j]) = sigma(s_j).
    """
    if isinstance(h, SubunitalMatrix):
        if not h.is_monomial:
            return False
        h = h.to_monomial()
    d = check_conjugation(sigma, h.order)  # sigma(s) = s^d
    perm, scalars, l = h.perm, h.scalars, h.order
    return all(
        perm[i] == j and scalars[i].exp == scalars[j].exp * d % l
        for j, i in enumerate(perm)
    )


def subunital_count(dim: int, l: int) -> int:
    """Number of dim x dim subunital matrices: sum_k C(dim,k)^2 k! l^k."""
    return sum(comb(dim, k) ** 2 * factorial(k) * l**k for k in range(dim + 1))


def enumerate_subunital(dim: int, l: int, budget: int | None = None) -> list[SubunitalMatrix]:
    """All subunital matrices, ordered by rank, then column set, then rows."""
    if dim < 1 or l < 1:
        raise ValueError("dim and l must be >= 1")
    check_budget(subunital_count(dim, l), budget, what=f"subunital({dim}) at level {l}")
    out = []
    for k in range(dim + 1):
        for cols in itertools.combinations(range(dim), k):
            for rows in itertools.permutations(range(dim), k):
                for exps in itertools.product(range(l), repeat=k):
                    cells = tuple(
                        (rows[t], cols[t], unit(exps[t], l)) for t in range(k)
                    )
                    out.append(SubunitalMatrix(dim, l, cells))
    return out


def format_matrix(a: AnyMatrix) -> str:
    """Render as the ``dim@l`` header plus one 1-based ``row col w^k`` line
    per nonzero entry."""
    lines = [f"{a.dim}@{a.order}"]
    lines += [f"{i + 1} {j + 1} {s}" for i, j, s in a.cells]
    return "\n".join(lines)


def matrix_to_json(a: AnyMatrix) -> dict:
    return {
        "dim": a.dim,
        "l": a.order,
        "entries": [[i + 1, j + 1, str(s)] for i, j, s in a.cells],
    }
