"""Exhaustive verification battery at desk-scale default bounds.

Each criterion pits a fast arithmetic predicate against an independent
brute-force oracle and must agree exactly.  The battery backs the
``selftest`` CLI subcommand and the acceptance test suite; the stated time
budgets are what the acceptance suite enforces.

The final criterion is the substitution record: the classical continuum
claims (universal no-cloning over C, measure-one deletion) are represented
here by their finite analogues - exhaustive no-cloning at desk scale and
exact rational deletion probabilities converging monotonically - because no
desk-scale computation can certify the continuum statements themselves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .clone_delete import (
    build_deletion_operator,
    build_simple_cloner,
    clones_rays,
    is_almost_unitary,
    probability_a1,
    scalar_obstruction,
    search_projective_cloner,
    verify_deletion,
)
from .field import automorphism_group, classify_involution, totient
from .frames import simple_rays
from .mqt import born_value, dictionary_table, gf_build, monomial_unitary_entries
from .operators import (
    MonomialMatrix,
    enumerate_GL,
    enumerate_subunital,
    gl_order,
    is_observable,
    is_unitary,
    unitary_group,
)
from .oracles import (
    brute_force_exponents,
    involution_brute_force,
    principal_subset_scan,
    product_rule_observables,
    product_rule_unitaries,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    ok: bool
    detail: str
    elapsed_ms: int
    limit_s: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "elapsed_ms": self.elapsed_ms,
            "limit_s": self.limit_s,
        }


def _involution_lemma() -> tuple[bool, str]:
    checked = disagreements = 0
    for m in range(1, 37):
        for r in range(1, 13):
            checked += 1
            if classify_involution(m, r).valid != involution_brute_force(m, r):
                disagreements += 1
    return disagreements == 0, (
        f"{checked} (m, r) pairs, predicate vs element scan, "
        f"{disagreements} disagreements"
    )


def _automorphism_group() -> tuple[bool, str]:
    for l in range(1, 25):
        if len(automorphism_group(l)) != totient(l):
            return False, f"count mismatch at l={l}"
    for l in range(1, 13):
        if sorted(automorphism_group(l)) != sorted(brute_force_exponents(l)):
            return False, f"permutation oracle mismatch at l={l}"
    return True, "counts = totient for l <= 24; permutation oracle agrees for l <= 12"


def _unitary_groups() -> tuple[bool, str]:
    for m, r in ((2, 1), (3, 1), (2, 2)):
        l = r * (r + 2)
        want = product_rule_unitaries(m, l, classify_involution(l, r))
        if unitary_group(m, r) != want:
            return False, f"U({m}, r={r}) differs from the product-rule filter of GL"
        if len(want) != (r + 2) ** m * math.factorial(m):
            return False, f"|U({m}, r={r})| = {len(want)}, expected the wreath order"
    for l, r in ((3, 1), (8, 2)):
        sigma = classify_involution(l, r)
        obs = [h for h in enumerate_GL(2, l) if is_observable(h, sigma)]
        if obs != product_rule_observables(2, l, sigma):
            return False, f"observables of GL(2) at level {l} differ from H = sigma(H^T)"
    for m in range(1, 5):
        gl = enumerate_GL(m, 2)
        if len(gl) != gl_order(m, 2) or not all(is_unitary(a) for a in gl):
            return False, f"U != GL at level 2, m={m}"
        eye = MonomialMatrix.identity(m, 2)
        for h in gl:
            if is_observable(h, None) != (h @ h == eye):
                return False, f"observable != square-identity at m={m}"
    n_obs = sum(is_observable(h, None) for h in enumerate_GL(2, 2))
    if n_obs != 6:
        return False, f"expected 6 observables at m=2, level 2, got {n_obs}"
    return True, (
        "U equals the product-rule filter of GL, with the wreath order, for "
        "(2,1),(3,1),(2,2); observables of GL(2) equal the H = sigma(H^T) filter "
        "at (l,r) = (3,1),(8,2); U=GL and observables=square roots of identity "
        "exhaustively at level 2, m <= 4; 6 observables at m=2"
    )


def _no_cloning() -> tuple[bool, str]:
    full = search_projective_cloner(2, 2, scope="all")
    if full.found:
        return False, "universal projective cloner found; theorem violated"
    if (full.unitaries_searched, full.blanks_searched) != (384, 8):
        return False, (
            f"search space {full.unitaries_searched}x{full.blanks_searched}, "
            "expected 384x8"
        )
    simple = search_projective_cloner(2, 2, scope="simple")
    if not simple.found:
        return False, "no simple-ray cloner found"
    if not clones_rays(
        simple.witness_operator, simple.witness_blank, simple_rays(2, 2)
    ):
        return False, "simple-ray witness failed re-verification"
    built, blank = build_simple_cloner(2, 2)
    if not clones_rays(built, blank, simple_rays(2, 2)):
        return False, "constructed simple cloner failed re-verification"
    for l in range(2, 25):
        if not scalar_obstruction(l):
            return False, f"scalar obstruction empty at l={l}"
    return True, (
        "384x8 exhaustive: no universal cloner; simple-ray witness found and "
        "re-verified; scalar obstruction nonempty for 2 <= l <= 24"
    )


def _deletion() -> tuple[bool, str]:
    for m in range(1, 4):
        for l in range(1, 4):
            op = build_deletion_operator(m, l)
            if not is_almost_unitary(op):
                return False, f"deleter not almost unitary at m={m}, l={l}"
            if not principal_subset_scan(op):
                return False, f"subset-scan disagreement at m={m}, l={l}"
    for a in enumerate_subunital(3, 3):
        if is_almost_unitary(a) != principal_subset_scan(a):
            return False, f"cycle rule and subset scan disagree on {str(a)!r}"
    for m in range(1, 5):
        for l in range(1, 5):
            report = verify_deletion(m, l)
            if report.probability != probability_a1(m, l):
                return False, f"probability mismatch at m={m}, l={l}"
    if probability_a1(2, 2) != Fraction(3, 4):
        return False, "P(2, 2) != 3/4"
    if abs(probability_a1(1000, 2) - Fraction(2, 3)) >= Fraction(1, 10**6):
        return False, "limit value at m=1000, l=2 not within 1e-6 of 2/3"
    return True, (
        "almost unitary for m, l <= 3 (cycle rule and subset scan); the rule "
        "equals the scan on every 3x3 subunital at level 3; per-ray audit matches "
        "the closed form for m, l <= 4; P(2,2) = 3/4; m=1000 within 1e-6 of 2/3"
    )


def _dictionary() -> tuple[bool, str]:
    for q in (2, 3):
        scan = monomial_unitary_entries(q, 2)
        if scan.scalar_group_order != q + 1:
            return False, f"scalar group order {scan.scalar_group_order} at q={q}"
        table = dictionary_table(q)
        if not table.aligned:
            return False, f"dictionary misaligned at q={q}"
    field = gf_build(2)
    vectors = [(a, b) for a in field.elements() for b in field.elements()]
    pairs = 0
    for x in vectors:
        for y in vectors:
            pairs += 1
            if not field.is_fixed(born_value(field, x, y)):
                return False, f"born value outside fixed field for {x}, {y}"
    return True, (
        f"scalar groups have order q+1 and rows align for q in (2, 3); "
        f"born values in the fixed field for all {pairs} pairs at m=2, q=2"
    )


def _continuum_note() -> tuple[bool, str]:
    probs = [probability_a1(2, l) for l in range(1, 9)]
    monotone = all(a < b for a, b in zip(probs, probs[1:]))
    below_one = all(p < 1 for p in probs)
    obstructed = all(scalar_obstruction(l) for l in range(2, 9))
    ok = monotone and below_one and obstructed
    return ok, (
        "continuum claims stand in as finite analogues: deletion probability "
        "strictly increases toward 1 in l, and the cloning obstruction is "
        "nonempty for every l >= 2"
    )


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]], float]] = [
    ("involution-lemma", _involution_lemma, 5.0),
    ("automorphism-group", _automorphism_group, 30.0),
    ("unitary-groups", _unitary_groups, 10.0),
    ("no-cloning", _no_cloning, 60.0),
    ("deletion", _deletion, 30.0),
    ("dictionary", _dictionary, 10.0),
    ("continuum-analogues", _continuum_note, 5.0),
]


def run_criterion(name: str, check: Callable[[], tuple[bool, str]], limit_s: float) -> CriterionResult:
    start = time.perf_counter()
    try:
        ok, detail = check()
    except Exception as exc:  # a crashed criterion is a failed criterion
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return CriterionResult(
        name=name, ok=ok, detail=detail, elapsed_ms=elapsed_ms, limit_s=limit_s
    )


def run_all() -> list[CriterionResult]:
    return [run_criterion(name, check, limit) for name, check, limit in CRITERIA]
