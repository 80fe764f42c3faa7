"""Brute-force oracles: each decides its question straight from the definition.

The battery in ``selftest`` and the test suite compare the fast predicates
of the other modules against these.  Nothing on a main code path imports
this module, and nothing here is capped: callers pick sizes small enough to
exhaust.

Field elements are coded as integers, 0 for zero and 1 + e for the unit
w^e, so the element-by-element checks run on plain table lookups.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .clone_delete import build_deletion_operator
from .field import InvolutionSpec, unit
from .frames import basis_state, enumerate_rays, ray_of, tensor
from .mqt import GFField, MonomialUnitaryScan, gf_build
from .operators import (
    AnyMatrix,
    MonomialMatrix,
    SubunitalMatrix,
    enumerate_GL,
    is_unitary,
)

__all__ = [
    "principal_submatrix",
    "principal_subset_scan",
    "product_rule_unitaries",
    "product_rule_observables",
    "involution_brute_force",
    "automorphism_group_brute_force",
    "brute_force_exponents",
    "dense_monomial_scan",
    "ray_deletion_audit",
]


def principal_submatrix(a: AnyMatrix, indices: Sequence[int]) -> SubunitalMatrix:
    """Keep the rows and columns with the same index set, reindexed."""
    idx = sorted(set(indices))
    where = {g: k for k, g in enumerate(idx)}
    cells = tuple(
        (where[i], where[j], s) for i, j, s in a.cells if i in where and j in where
    )
    return SubunitalMatrix(len(idx), a.order, cells)


def principal_subset_scan(a: AnyMatrix, sigma: InvolutionSpec | None = None) -> bool:
    """Whether every nonsingular principal submatrix of A is unitary, by
    trying all 2^dim - 1 nonempty index sets."""
    for k in range(1, a.dim + 1):
        for subset in itertools.combinations(range(a.dim), k):
            block = principal_submatrix(a, subset)
            if block.is_monomial and not is_unitary(block.to_monomial(), sigma):
                return False
    return True


def product_rule_unitaries(
    m: int, l: int, sigma: InvolutionSpec | None
) -> list[MonomialMatrix]:
    """The members A of GL(m) at level l with sigma(A^T) A = I, by matrix
    algebra, in ``enumerate_GL`` order."""
    eye = MonomialMatrix.identity(m, l)
    return [a for a in enumerate_GL(m, l) if a.transpose().conj(sigma) @ a == eye]


def product_rule_observables(
    m: int, l: int, sigma: InvolutionSpec | None
) -> list[MonomialMatrix]:
    """The members H of GL(m) at level l with H = sigma(H^T), by matrix
    algebra, in ``enumerate_GL`` order."""
    return [h for h in enumerate_GL(m, l) if h == h.transpose().conj(sigma)]


def _code_products(l: int) -> list[list[int]]:
    """The multiplication table of the l + 1 element codes at level l."""
    n = l + 1
    return [
        [0 if a == 0 or b == 0 else 1 + (a + b - 2) % l for b in range(n)]
        for a in range(n)
    ]


def involution_brute_force(m: int, r: int) -> bool:
    """Element-by-element oracle for ``field.classify_involution``.

    Checks directly on all m + 1 element codes that v -> v^(r+1) is a
    bijective multiplicative map whose square is the identity and which is
    not the identity.
    """
    table = _code_products(m)
    codes = range(m + 1)
    image = [0] + [1 + (c - 1) * (r + 1) % m for c in codes[1:]]
    if len(set(image)) != len(image):
        return False
    for x in codes:
        for y in codes:
            if image[table[x][y]] != table[image[x]][image[y]]:
                return False
    if any(image[image[x]] != x for x in codes):
        return False
    return any(image[x] != x for x in codes)


def automorphism_group_brute_force(l: int) -> list[tuple[int, ...]]:
    """Every multiplication-preserving permutation of {0} | mu_l.

    Backtracking over all permutations of the l + 1 element codes, pruning
    partial assignments as soon as a fully-assigned product triple breaks
    phi(a*b) = phi(a)*phi(b).  Deliberately independent of the gcd
    characterization in ``field.automorphism_group`` so the two can be
    cross checked; each result is the tuple of image codes.
    """
    n = l + 1
    table = _code_products(l)
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


def brute_force_exponents(l: int) -> list[int]:
    """Reduce each brute-force automorphism to the exponent d it realizes."""
    exps = []
    for images in automorphism_group_brute_force(l):
        if l == 1:
            exps.append(1)
            continue
        d = images[2] - 1  # image code of the generator w^1
        exps.append(l if d == 0 else d)  # canonical representative in [1, l]
    return sorted(exps)


def _dense_monomial(
    perm: tuple[int, ...], exps: tuple[int, ...]
) -> list[list[int | None]]:
    """The dense matrix of logs, None marking the zero entries."""
    m = len(perm)
    rows: list[list[int | None]] = [[None] * m for _ in range(m)]
    for j in range(m):
        rows[perm[j]][j] = exps[j]
    return rows


def _is_dense_unitary(field: GFField, a: list[list[int | None]]) -> bool:
    # (A* A)[i][j] = sum_k conj(A[k][i]) * A[k][j], compared to identity.
    # In logs a product is q*x + y, and g^s + g^u = g^s * (1 + g^(u-s)).
    q, n, zech = field.q, field.level, field.zech
    m = len(a)
    for i in range(m):
        for j in range(m):
            total = None
            for k in range(m):
                x, y = a[k][i], a[k][j]
                if x is None or y is None:
                    continue
                term = (q * x + y) % n
                if total is None:
                    total = term
                else:
                    z = zech[(term - total) % n]
                    total = None if z is None else (total + z) % n
            if total != (0 if i == j else None):
                return False
    return True


def dense_monomial_scan(q: int, m: int) -> MonomialUnitaryScan:
    """Oracle for ``mqt.monomial_unitary_entries``: every one of the
    m! * (q^2 - 1)^m (perm, scalars) candidates over F_{q^2} is built as a
    dense matrix of discrete logs and its whole A*A compared with the
    identity."""
    field = gf_build(q)
    n = field.level
    count = 0
    seen: set[int] = set()
    for perm in itertools.permutations(range(m)):
        for exps in itertools.product(range(n), repeat=m):
            if _is_dense_unitary(field, _dense_monomial(perm, exps)):
                count += 1
                seen.update(exps)
    return MonomialUnitaryScan(
        q=q,
        m=m,
        unitary_count=count,
        allowed_scalars=tuple(unit(k, n) for k in sorted(seen)),
    )


def ray_deletion_audit(m: int, l: int, blank_index: int) -> tuple[int, int]:
    """Oracle for ``clone_delete.verify_deletion``: apply the deleter to
    phi (x) phi for every ray phi and compare rays, not vectors.  The image
    must have the ray of phi (x) e_blank when phi_blank is nonzero and be
    the zero vector otherwise; any other outcome raises.  Returns the
    (deleted, annihilated) counts."""
    op = build_deletion_operator(m, l, blank_index)
    blank = basis_state(blank_index, m, l)
    deleted = annihilated = 0
    for phi in enumerate_rays(m, l):
        rep = phi.representative
        image = op.apply(tensor(rep, rep))
        if rep[blank_index].is_unit:
            if ray_of(image) != ray_of(tensor(rep, blank)):
                raise AssertionError(f"deletion failed on {rep}")
            deleted += 1
        else:
            if not image.is_zero:
                raise AssertionError(f"expected annihilation on {rep}")
            annihilated += 1
    return deleted, annihilated
