"""Cloning obstructions and almost-unitary deletion.

Vectorial cloning dies on a scalar identity (a global factor would have to
satisfy a^2 = a), so everything here is posed projectively: a cloner must
send the ray of phi (x) blank to the ray of phi (x) phi.  Exhaustive search
at desk scale shows no unitary does this for all rays, while an explicit
permutation clones the simple rays.  Deletion runs the other way: no unitary
deletes (its inverse would clone), but a singular operator that is unitary
on every nonsingular principal submatrix deletes every ray whose designated
coordinate is nonzero, with exactly computable success probability.

Annihilated rays (designated coordinate zero) are reported as outcomes, not
raised as errors: the deletion operator maps them to the zero vector, which
simply is not a ray.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .budget import _check_wreath, check_budget
from .field import F1Element, InvolutionSpec, _unitary_count, one, unitary_exponents, units
from .frames import (
    ProjectiveRay,
    StateVector,
    basis_state,
    enumerate_rays,
    iter_rays,
    ray_count,
    ray_of,
    simple_rays,
    tensor,
)
from .operators import (
    AnyMatrix,
    MonomialMatrix,
    SubunitalMatrix,
    _wreath,
    enumerate_subunital,
    unitary_order,
)

__all__ = [
    "scalar_obstruction",
    "CloneSearchResult",
    "clones_rays",
    "search_projective_cloner",
    "build_simple_cloner",
    "is_almost_unitary",
    "build_deletion_operator",
    "DeletionReport",
    "verify_deletion",
    "probability_a1",
    "check_probability_digits",
    "probability_json",
    "limit_m_infinity",
    "limit_l_infinity",
    "AlmostUnitaryCloningScan",
    "almost_unitary_cloning_fails",
]


def scalar_obstruction(l: int) -> list[F1Element]:
    """Units a with a^2 != a, each one killing vectorial cloning at level l.

    A cloner applied to a scaled input forces a^2 = a for every unit a, so a
    nonempty list (every l >= 2) settles the vectorial question outright.
    """
    return [a for a in units(l) if a * a != a]


@dataclass(frozen=True)
class CloneSearchResult:
    """Outcome of an exhaustive projective cloner search."""

    m: int
    l: int
    scope: str
    found: bool
    witness_operator: MonomialMatrix | None
    witness_blank: StateVector | None
    unitaries_searched: int
    blanks_searched: int
    rays_targeted: int


def _sends_all(u: MonomialMatrix, pairs) -> bool:
    """Whether u maps the ray of every source state to its wanted ray."""
    return all(ray_of(u.apply(source)) == wanted for source, wanted in pairs)


def clones_rays(
    u: MonomialMatrix, blank: StateVector, targets: list[ProjectiveRay]
) -> bool:
    """Whether u maps ray(phi (x) blank) to ray(phi (x) phi) for every target."""
    reps = (phi.representative for phi in targets)
    pairs = ((tensor(rep, blank), ray_of(tensor(rep, rep))) for rep in reps)
    return _sends_all(u, pairs)


def _cloner_cases(
    m: int, l: int, scope: str, budget: int | None
) -> tuple[list[ProjectiveRay], list[list[tuple]]]:
    """The targets, and the blanks that can still clone, by column.

    Monomial operators preserve support size, so a blank whose support size
    is not 1 fails every simple ray, whose clone has support size 1, and
    both scopes target the simple rays.  Only the m*l simple blanks w^e e_j
    are built: cases[j] lists (blank, the (phi (x) blank, ray of phi (x) phi)
    pair of every target phi) for the blanks of column j, e ascending.
    """
    targets = enumerate_rays(m, l, budget) if scope == "all" else simple_rays(m, l)
    # Widest supports first: against a simple blank a non-simple target
    # always fails, so most pairs are rejected after one image.
    reps = sorted(
        (phi.representative for phi in targets), key=lambda rep: -len(rep.support())
    )
    clones = [ray_of(tensor(rep, rep)) for rep in reps]
    cases = [[] for _ in range(m)]
    for j, e in itertools.product(range(m), range(l)):
        blank = basis_state(j, m, l, e)
        cases[j].append((blank, [(tensor(rep, blank), c) for rep, c in zip(reps, clones)]))
    return targets, cases


def _pinned_perms(m: int):
    """The permutations that pin a blank column, in lexicographic order.

    Stream j sends column i*m + j to row i*m + i for every i and the other
    columns to the other rows in every order.  Only stream j sends column j
    to row 0, so merging the m streams keeps each permutation once.
    """
    n = m * m
    rows = [r for r in range(n) if r % (m + 1)]

    def pinning(j):
        perm = [0] * n
        perm[j::m] = range(0, n, m + 1)
        free = [c for c in range(n) if c % m != j]
        for image in itertools.permutations(rows):
            for c, r in zip(free, image):
                perm[c] = r
            yield tuple(perm)

    return heapq.merge(*(pinning(j) for j in range(m)))


def _first_cloner(
    job: tuple[int, int, InvolutionSpec | None, list[list[tuple]], int, int],
) -> tuple[MonomialMatrix, StateVector] | None:
    """Scan the unitaries of ``_pinned_perms(m)`` at positions [start, stop);
    return (unitary, blank) of the first cloning pair.

    A blank w^e e_j clones e_i only if column i*m + j goes to row i*m + i,
    so no other permutation is built.  Each unitary is tested against
    cases[j] alone, j = p.index(0) the column its permutation p pins.
    """
    m, l, sigma, cases, start, stop = job
    pinned = itertools.islice(_pinned_perms(m), start, stop)
    for u in _wreath(m * m, l, unitary_exponents(sigma, l), pinned):
        for blank, pairs in cases[u.perm.index(0)]:
            if _sends_all(u, pairs):
                return u, blank
    return None


def search_projective_cloner(
    m: int,
    l: int,
    sigma: InvolutionSpec | None = None,
    scope: str = "all",
    budget: int | None = None,
    workers: int = 1,
) -> CloneSearchResult:
    """Exhaust all (unitary, blank) pairs for a projective cloner.

    scope='all' asks for a universal cloner over every ray and is expected to
    find none; scope='simple' restricts the demand to the m simple rays and
    is expected to find a witness.  The witness returned is always the first
    in canonical enumeration order (unitaries outer, blanks inner).  Part k
    of K = min(workers, CPUs, P) scans the k-th of K equal runs of the
    P = m * (m^2 - m)! pinned permutations against the cases built here
    under the caller's budget; the first part with a hit holds the witness,
    so the worker count never changes the answer, only the wall time.  Pairs
    that provably fail (a non-simple blank, or a unitary whose permutation
    pins no blank column) are counted as searched without being built.
    """
    n = m * m
    if n < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    if scope not in ("all", "simple"):
        raise ValueError(f"scope must be 'all' or 'simple', got {scope!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_wreath(n, _unitary_count(sigma, l), budget, what=f"U({n}) at level {l}")
    unitary_count = unitary_order(n, l, sigma)
    # The rays, the blanks and the pairs are counted in closed form, in the
    # order ``_cloner_cases`` counts them, so a refused search builds nothing.
    if scope == "all":
        check_budget(ray_count(m, l), budget, what=f"rays of dimension {m} at level {l}")
    check_budget((l + 1) ** m, budget, what=f"vectors of dimension {m} at level {l}")
    blank_count = (l + 1) ** m - 1
    check_budget(unitary_count * blank_count, budget, what="cloner search")
    targets, cases = _cloner_cases(m, l, scope, budget)

    pinned_count = m * factorial(n - m)
    parts = min(workers, os.cpu_count() or 1, pinned_count)
    cuts = [k * pinned_count // parts for k in range(parts + 1)]
    jobs = [(m, l, sigma, cases, cuts[k], cuts[k + 1]) for k in range(parts)]
    if parts == 1:
        hits = map(_first_cloner, jobs)
    else:
        with ProcessPoolExecutor(max_workers=parts) as pool:
            hits = list(pool.map(_first_cloner, jobs))
    witness_u, witness_b = next((hit for hit in hits if hit is not None), (None, None))
    # The scan's pins and precomputed pairs are a fast path; the definition
    # has the last word on a witness.
    if witness_u is not None and not clones_rays(witness_u, witness_b, targets):
        raise AssertionError(f"cloner scan returned non-cloning {witness_u}, {witness_b}")
    return CloneSearchResult(
        m=m,
        l=l,
        scope=scope,
        found=witness_u is not None,
        witness_operator=witness_u,
        witness_blank=witness_b,
        unitaries_searched=unitary_count,
        blanks_searched=blank_count,
        rays_targeted=len(targets),
    )


def build_simple_cloner(m: int, l: int, blank_index: int = 0) -> tuple[MonomialMatrix, StateVector]:
    """A permutation that clones every simple ray against the given blank.

    Column (i, blank) of the tensor space is rerouted to (i, i), so basis
    input e_i (x) e_blank comes out as e_i (x) e_i; the rerouting is a
    product of disjoint transpositions, hence a permutation.
    """
    if not 0 <= blank_index < m:
        raise ValueError(f"blank index {blank_index} out of range for dimension {m}")
    perm = list(range(m * m))
    for i in range(m):
        a, b = i * m + blank_index, i * m + i
        perm[a], perm[b] = perm[b], perm[a]
    return MonomialMatrix.from_permutation(perm, l), basis_state(blank_index, m, l)


def _first_nonsimple_ray(m: int, l: int, budget: int | None = None) -> ProjectiveRay:
    """The first non-simple ray in enumeration order; at m = 1 every ray is
    simple, so there is none."""
    if m < 2:
        raise ValueError("non-simple rays need dimension >= 2")
    return next(r for r in iter_rays(m, l, budget) if not r.is_simple)


def is_almost_unitary(a: AnyMatrix, sigma: InvolutionSpec | None = None) -> bool:
    """Whether every nonsingular principal submatrix of A is unitary.

    Principal means rows and columns are deleted with the same index set.
    Read A as the partial map column -> row: a principal submatrix is
    nonsingular exactly when its index set is a union of cycles of that map,
    and it is then unitary exactly when each of its columns passes the
    per-column test of ``is_unitary``.  So A is almost unitary exactly when
    every cell on a cycle passes that test; cells on open paths are free, and
    a fixed point (i, i) is a 1-cycle.
    """
    allowed = unitary_exponents(sigma, a.order)
    step = {j: (i, s) for i, j, s in a.cells}
    seen = set()
    for start in step:
        # The map is injective, so a walk can close a cycle only at its
        # start, and a walk that runs into an earlier one is on no cycle.
        j, walk = start, []
        while j in step and j not in seen:
            seen.add(j)
            j, scalar = step[j]
            walk.append(scalar.exp)
        if j == start and any(e not in allowed for e in walk):
            return False
    return True


def build_deletion_operator(
    m: int, l: int, blank_index: int = 0, budget: int | None = None
) -> SubunitalMatrix:
    """The m^2 x m^2 deleter: diagonal ones at positions k*m + blank_index.

    With the default blank_index 0 these are the 1-based diagonal positions
    1, m+1, 2m+1, ..., m^2-m+1.  Applied to phi (x) phi it keeps the column
    phi_blank * phi, i.e. a unit multiple of phi (x) e_blank whenever
    phi_blank is nonzero, and the zero vector otherwise.  The dimension m^2
    is checked against the budget before the operator is built.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= blank_index < m:
        raise ValueError(f"blank index {blank_index} out of range for dimension {m}")
    check_budget(m * m, budget, what=f"deleter of dimension {m * m}")
    cells = tuple((k * m + blank_index, k * m + blank_index, one(l)) for k in range(m))
    return SubunitalMatrix(m * m, l, cells)


@dataclass(frozen=True)
class DeletionReport:
    """Per-ray audit of the deletion operator on the diagonal family."""

    m: int
    l: int
    blank_index: int
    operator: SubunitalMatrix
    rays_deleted: int
    rays_annihilated: int
    probability: Fraction

    @property
    def total_rays(self) -> int:
        return self.rays_deleted + self.rays_annihilated

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "l": self.l,
            "deleted": self.rays_deleted,
            "annihilated": self.rays_annihilated,
            **probability_json(self.probability, self.l),
        }


def verify_deletion(
    m: int, l: int, blank_index: int = 0, budget: int | None = None
) -> DeletionReport:
    """Apply the deleter D to phi (x) phi for every ray phi and audit outcomes.

    D keeps the coordinates k*m + b, b the blank index, where
    (phi (x) phi)_(k*m + b) = phi_k phi_b.  So a ray whose designated entry
    phi_b = w^e is nonzero must come out as exactly phi (x) (w^e e_b)
    (deleted), where w^e e_b is phi projected onto coordinate b.  That
    image is w^e times phi (x) e_b, so the identity puts it on the ray of
    phi (x) e_b, which is what deletion asks, and fixes the global factor
    besides; neither side is put in canonical ray form.  The rest must be
    annihilated to the zero vector.  Any other outcome would falsify the
    construction and raises.  The deleter's dimension and the ray count are
    checked against the budget first; then the rays are walked one at a time.
    """
    op = build_deletion_operator(m, l, blank_index, budget)
    rays = iter_rays(m, l, budget)
    keep = SubunitalMatrix(m, l, ((blank_index, blank_index, one(l)),))
    blanks: dict[int, StateVector] = {}
    deleted = annihilated = 0
    for phi in rays:
        rep = phi.representative
        image = op.apply(tensor(rep, rep))
        e = rep[blank_index].exp
        if e is not None:
            if e not in blanks:
                blanks[e] = keep.apply(rep)
            if image != tensor(rep, blanks[e]):
                raise AssertionError(f"deletion failed on {rep}")
            deleted += 1
        else:
            if not image.is_zero:
                raise AssertionError(f"expected annihilation on {rep}")
            annihilated += 1
    return DeletionReport(
        m=m,
        l=l,
        blank_index=blank_index,
        operator=op,
        rays_deleted=deleted,
        rays_annihilated=annihilated,
        probability=Fraction(deleted, deleted + annihilated),
    )


def probability_a1(m: int, l: int) -> Fraction:
    """Exact chance that a uniform ray has nonzero designated coordinate.

    l(l+1)^(m-1) of the ((l+1)^m - 1)/l rays do, giving
    l(l+1)^(m-1) / ((l+1)^m - 1); increasing in l, with limits l/(l+1) as
    m grows and 1 as l grows.
    """
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    return Fraction(l * (l + 1) ** (m - 1), (l + 1) ** m - 1)


def check_probability_digits(m: int, l: int) -> None:
    """Raise ValueError when ``probability_a1(m, l)`` has a numerator or
    denominator too long for ``str`` under ``sys.get_int_max_str_digits()``.

    In lowest terms the probability is (l+1)^(m-1) over ((l+1)^m - 1)/l, and
    the denominator, the longer, has more than ``limit`` digits exactly when
    m > x.  Logarithms decide away from the boundary, so a huge m is refused
    before (l+1)^m is computed.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and m >= 1 and l >= 1:
        x = (limit + math.log10(l)) / math.log10(l + 1)
        if m > x + 1 or (m > x - 1 and (l + 1) ** m > l * 10**limit):
            raise ValueError(
                f"the probability at m={m}, l={l} has more than {limit} digits, "
                "the limit of sys.get_int_max_str_digits()"
            )


def limit_m_infinity(l: int) -> Fraction:
    return Fraction(l, l + 1)


def limit_l_infinity() -> Fraction:
    return Fraction(1)


def probability_json(p: Fraction, l: int) -> dict:
    """The ``probability`` and ``limits`` blocks of a deletion payload at
    level l, each fraction written as ``{"num": ..., "den": ...}``."""

    def fraction(x: Fraction) -> dict:
        return {"num": x.numerator, "den": x.denominator}

    return {
        "probability": fraction(p),
        "limits": {
            "m_inf": fraction(limit_m_infinity(l)),
            "l_inf": fraction(limit_l_infinity()),
        },
    }


@dataclass(frozen=True)
class AlmostUnitaryCloningScan:
    """Exhaustive check that almost-unitary operators cannot clone either."""

    m: int
    l: int
    ray: ProjectiveRay
    operators_scanned: int
    almost_unitary_count: int
    pairs_checked: int
    counterexample: tuple[SubunitalMatrix, StateVector] | None

    @property
    def cloning_impossible(self) -> bool:
        return self.counterexample is None


def almost_unitary_cloning_fails(
    m: int, l: int, budget: int | None = None
) -> AlmostUnitaryCloningScan:
    """Scan every almost-unitary operator against one non-simple ray.

    Blanks range over all simple states.  Whenever the image of
    phi (x) blank is nonzero its ray is compared to the clone target; a match
    would be a counterexample, and none is expected.
    """
    phi = _first_nonsimple_ray(m, l, budget)
    rep = phi.representative
    target = ray_of(tensor(rep, rep))
    blanks = [basis_state(i, m, l, exp) for i in range(m) for exp in range(l)]
    candidates = enumerate_subunital(m * m, l, budget)
    almost = [a for a in candidates if is_almost_unitary(a)]
    pairs = 0
    counterexample = None
    for a, blank in itertools.product(almost, blanks):
        pairs += 1
        image = a.apply(tensor(rep, blank))
        if not image.is_zero and ray_of(image) == target:
            counterexample = (a, blank)
            break
    return AlmostUnitaryCloningScan(
        m=m,
        l=l,
        ray=phi,
        operators_scanned=len(candidates),
        almost_unitary_count=len(almost),
        pairs_checked=pairs,
        counterexample=counterexample,
    )
