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
from typing import Iterator, Sequence, Union

from .budget import check_budget
from .field import (
    F1Element,
    InvolutionSpec,
    check_conjugation,
    classify_involution,
    interned,
    one,
    parse_element,
    unit,
    units,
    zero,
)
from .frames import StateVector

__all__ = [
    "MonomialMatrix",
    "SubunitalMatrix",
    "AnyMatrix",
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
    "parse_matrix",
    "matrix_to_json",
    "matrix_from_json",
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

    @classmethod
    def identity(cls, dim: int, l: int) -> "MonomialMatrix":
        return cls(l, tuple(range(dim)), tuple(one(l) for _ in range(dim)))

    @classmethod
    def from_permutation(cls, perm: Sequence[int], l: int) -> "MonomialMatrix":
        return cls(l, tuple(perm), tuple(one(l) for _ in perm))

    @classmethod
    def swap(cls, l: int) -> "MonomialMatrix":
        return cls.from_permutation((1, 0), l)

    @classmethod
    def diagonal(cls, scalars: Sequence[F1Element]) -> "MonomialMatrix":
        scalars = tuple(scalars)
        return cls(scalars[0].order, tuple(range(len(scalars))), scalars)

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
        return StateVector(tuple(out))

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
        if sigma is None:
            return self
        return MonomialMatrix(self.order, self.perm, tuple(sigma(s) for s in self.scalars))

    def inverse(self) -> "MonomialMatrix":
        inv = [0] * self.dim
        scalars = [self.scalars[0]] * self.dim
        for j, i in enumerate(self.perm):
            inv[i] = j
            scalars[i] = self.scalars[j].inverse()
        return MonomialMatrix(self.order, tuple(inv), tuple(scalars))

    def to_subunital(self) -> "SubunitalMatrix":
        cells = tuple(
            sorted((self.perm[j], j, self.scalars[j]) for j in range(self.dim))
        )
        return SubunitalMatrix(self.dim, self.order, cells)


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
        return StateVector(tuple(out))

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


def enumerate_GL(m: int, l: int, budget: int | None = None) -> list[MonomialMatrix]:
    """All invertible monomial matrices, permutations outer, scalars inner."""
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    check_budget(gl_order(m, l), budget, what=f"GL({m}) at level {l}")
    return list(_unitary_slice(m, l, units(l), 0, None))


def _norm_exponent(sigma: InvolutionSpec | None) -> int:
    """The d with sigma(s) * s = s^d for every unit s: r + 2 under
    v -> v^(r+1), and 2 under the identity conjugation."""
    return 2 if sigma is None else sigma.r + 2


def is_unitary(a: AnyMatrix, sigma: InvolutionSpec | None = None) -> bool:
    """Whether sigma(A^T) A is the identity.

    Any singular matrix fails; for a monomial matrix the product collapses to
    the diagonal of the per-column values sigma(s) * s, so each column's
    exponent e must satisfy (r+2) * e = 0 mod l under v -> v^(r+1), or
    2 * e = 0 mod l under the identity conjugation.
    """
    if isinstance(a, SubunitalMatrix):
        if not a.is_monomial:
            return False
        a = a.to_monomial()
    check_conjugation(sigma, a.order)
    d = _norm_exponent(sigma)
    return all(d * s.exp % a.order == 0 for s in a.scalars)


def _unitary_scalars(l: int, sigma: InvolutionSpec | None) -> list[F1Element]:
    """The unit scalars s with sigma(s) * s = 1, in exponent order."""
    d = _norm_exponent(sigma)
    return [unit(e, l) for e in range(l) if d * e % l == 0]


def unitary_order(m: int, l: int, sigma: InvolutionSpec | None = None) -> int:
    """|U(m)| at level l: m! times |U|^m for the unitary scalar subgroup U."""
    return factorial(m) * len(_unitary_scalars(l, sigma)) ** m


def iter_unitaries(
    m: int, l: int, sigma: InvolutionSpec | None = None, budget: int | None = None
) -> Iterator[MonomialMatrix]:
    """The unitary monomial matrices, permutations outer, scalars inner.

    The group is the wreath product of the unitary scalar subgroup with S_m,
    so it is generated directly rather than filtered out of GL; the order is
    the same as filtering ``enumerate_GL`` with ``is_unitary``.  Arguments
    and the budget are checked at call time, before anything is built.
    """
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    check_conjugation(sigma, l)
    check_budget(unitary_order(m, l, sigma), budget, what=f"U({m}) at level {l}")
    return _unitary_slice(m, l, _unitary_scalars(l, sigma), 0, None)


def _unitary_slice(
    m: int, l: int, scalars: Sequence[F1Element], lo: int, hi: int | None
) -> Iterator[MonomialMatrix]:
    """Members lo <= k < hi of the wreath product of ``scalars`` with S_m,
    unchecked: ``iter_unitaries`` with the unitary scalars, ``enumerate_GL``
    with every unit.  Each permutation owns len(scalars)^m consecutive
    members, so the permutations wholly before ``lo`` are skipped outright,
    and only the members in the slice are built as matrices.
    """
    per_perm = len(scalars) ** m
    skipped = lo // per_perm * per_perm
    perms = itertools.islice(itertools.permutations(range(m)), lo // per_perm, None)
    fields = (
        (l, perm, column_scalars)
        for perm in perms
        for column_scalars in itertools.product(scalars, repeat=m)
    )
    stop = None if hi is None else hi - skipped
    return itertools.starmap(MonomialMatrix, itertools.islice(fields, lo - skipped, stop))


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
    check_conjugation(sigma, h.order)
    d = 1 if sigma is None else sigma.r + 1  # sigma(s) = s^d
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


def _as_subunital(a: AnyMatrix) -> SubunitalMatrix:
    return a.to_subunital() if isinstance(a, MonomialMatrix) else a


def format_matrix(a: AnyMatrix) -> str:
    """Render as the ``dim@l`` header plus one 1-based ``row col w^k`` line
    per nonzero entry."""
    sub = _as_subunital(a)
    lines = [f"{sub.dim}@{sub.order}"]
    lines += [f"{i + 1} {j + 1} {s}" for i, j, s in sub.cells]
    return "\n".join(lines)


def parse_matrix(text: str) -> SubunitalMatrix:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or "@" not in lines[0]:
        raise ValueError("matrix text must start with a dim@l header")
    dim_s, l_s = lines[0].split("@", 1)
    dim, l = int(dim_s), int(l_s)
    cells = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad matrix line {ln!r} (want 'row col w^k')")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        cells.append((i, j, parse_element(parts[2], l)))
    return SubunitalMatrix(dim, l, tuple(cells))


def matrix_to_json(a: AnyMatrix) -> dict:
    sub = _as_subunital(a)
    return {
        "dim": sub.dim,
        "l": sub.order,
        "entries": [[i + 1, j + 1, str(s)] for i, j, s in sub.cells],
    }


def matrix_from_json(obj: dict) -> SubunitalMatrix:
    dim, l = int(obj["dim"]), int(obj["l"])
    cells = tuple(
        (int(i) - 1, int(j) - 1, parse_element(tok, l)) for i, j, tok in obj["entries"]
    )
    return SubunitalMatrix(dim, l, cells)
