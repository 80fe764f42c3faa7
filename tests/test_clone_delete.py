"""No-cloning searches and the almost-unitary deletion operator."""

import itertools
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1q import budget, clone_delete, operators
from f1q.budget import BudgetExceededError
from f1q.clone_delete import (
    CloneSearchResult,
    _cloner_cases,
    _first_cloner,
    _first_nonsimple_ray,
    almost_unitary_cloning_fails,
    build_deletion_operator,
    build_simple_cloner,
    clones_rays,
    is_almost_unitary,
    limit_l_infinity,
    limit_m_infinity,
    probability_a1,
    scalar_obstruction,
    search_projective_cloner,
    verify_deletion,
)
from f1q.field import classify_involution, one, unit, unitary_exponents, units
from f1q.frames import (
    StateVector,
    basis_state,
    enumerate_rays,
    enumerate_vectors,
    ray_of,
    simple_rays,
    state,
    tensor,
)
from f1q.operators import (
    MonomialMatrix,
    SubunitalMatrix,
    enumerate_subunital,
    is_unitary,
    iter_unitaries,
)
from f1q.oracles import (
    principal_subset_scan,
    product_rule_unitaries,
    ray_deletion_audit,
)


def _ray(exps, l):
    """Canonical ray of a nonzero exponent vector (None for a zero entry)."""
    lead = next(e for e in exps if e is not None)
    return tuple(None if e is None else (e - lead) % l for e in exps)


def _tensor(x, y, l):
    return [None if a is None or b is None else (a + b) % l for a in x for b in y]


def conjugations(l):
    """The identity conjugation (None) and every valid involution at level l."""
    specs = (classify_involution(l, r) for r in range(1, l + 1))
    return [None] + [sigma for sigma in specs if sigma.valid]


cached_product_rule_unitaries = lru_cache(maxsize=None)(product_rule_unitaries)


@lru_cache(maxsize=None)
def brute_force_search(m, l, r, scope):
    """Every (unitary, blank) pair in canonical order, with no pruning.

    The unitaries are the product-rule filter of GL; the cloning test is
    redone in plain exponent arithmetic.
    """
    n = m * m
    sigma = None if r is None else classify_involution(l, r)
    unitaries = cached_product_rule_unitaries(n, l, sigma)
    blanks = enumerate_vectors(m, l)
    targets = enumerate_rays(m, l) if scope == "all" else simple_rays(m, l)
    reps = [[x.exp for x in phi.representative] for phi in targets]
    clones = [_ray(_tensor(rep, rep, l), l) for rep in reps]
    sources = [[_tensor(rep, [x.exp for x in b], l) for rep in reps] for b in blanks]

    def clones_all(u, blank_sources):
        for source, clone in zip(blank_sources, clones):
            image = [None] * n
            for k, e in enumerate(source):
                if e is not None:
                    image[u.perm[k]] = (e + u.scalars[k].exp) % l
            if _ray(image, l) != clone:
                return False
        return True

    witness = next(
        (
            (u, blank)
            for u in unitaries
            for blank, blank_sources in zip(blanks, sources)
            if clones_all(u, blank_sources)
        ),
        (None, None),
    )
    return CloneSearchResult(
        m=m,
        l=l,
        scope=scope,
        found=witness[0] is not None,
        witness_operator=witness[0],
        witness_blank=witness[1],
        unitaries_searched=len(unitaries),
        blanks_searched=len(blanks),
        rays_targeted=len(targets),
    )


SEARCH_CASES = [
    (m, l, None if sigma is None else sigma.r)
    for m in (1, 2)
    for l in range(1, 6)
    for sigma in conjugations(l)
]


def test_scalar_obstruction_empty_iff_level_one():
    assert scalar_obstruction(1) == []
    for l in range(2, 25):
        bad = scalar_obstruction(l)
        assert bad
        assert all(a * a != a for a in bad)
        # only the identity scalar survives the cloning identity
        assert len(bad) == l - 1


def test_universal_cloner_search_is_exhaustive_and_empty():
    result = search_projective_cloner(2, 2, scope="all")
    assert not result.found
    assert result.unitaries_searched == 384
    assert result.blanks_searched == 8
    assert result.rays_targeted == 4
    assert result.witness_operator is None


def test_universal_cloner_absent_at_level_one():
    result = search_projective_cloner(2, 1, scope="all")
    assert not result.found
    assert result.unitaries_searched == 24  # GL(4, level 1) = S_4
    assert result.blanks_searched == 3


def test_simple_cloner_found_and_reverified():
    result = search_projective_cloner(2, 2, scope="simple")
    assert result.found
    assert clones_rays(result.witness_operator, result.witness_blank, simple_rays(2, 2))
    # the witness cannot also clone every ray
    assert not clones_rays(result.witness_operator, result.witness_blank, enumerate_rays(2, 2))


def test_search_witness_is_deterministic_under_workers():
    seq = search_projective_cloner(2, 2, scope="simple", workers=1)
    par = search_projective_cloner(2, 2, scope="simple", workers=3)
    assert seq.witness_operator == par.witness_operator
    assert seq.witness_blank == par.witness_blank


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("scope", ["all", "simple"])
@pytest.mark.parametrize("m,l,r", SEARCH_CASES)
def test_search_matches_brute_force(m, l, r, scope, workers):
    sigma = None if r is None else classify_involution(l, r)
    got = search_projective_cloner(m, l, sigma, scope, workers=workers)
    want = brute_force_search(m, l, r, scope)
    for f in fields(CloneSearchResult):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_search_respects_budget():
    with pytest.raises(BudgetExceededError):
        search_projective_cloner(2, 2, budget=50)
    # at l=3 the budget counts 24 unitaries (GL has 1944) times 15 blanks
    assert search_projective_cloner(2, 3, budget=360).unitaries_searched == 24
    with pytest.raises(BudgetExceededError):
        search_projective_cloner(2, 3, budget=359)
    # Bad arguments are refused before any budget check, and at once.
    for kwargs in ({"scope": "bogus"}, {"workers": 0}, {"workers": -5}):
        with pytest.raises(ValueError):
            search_projective_cloner(1000, 1, **kwargs)
        with pytest.raises(ValueError):
            search_projective_cloner(2, 1, **kwargs)


def test_workers_run_under_the_callers_budget(monkeypatch):
    # Every part reads the cases the caller built under its own budget; a
    # part that rebuilt them under the default budget would refuse here.
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", 5)
    seq = search_projective_cloner(2, 2, scope="all", budget=10**6, workers=1)
    assert (seq.unitaries_searched, seq.blanks_searched) == (384, 8)
    for workers in (2, 3):
        par = search_projective_cloner(2, 2, scope="all", budget=10**6, workers=workers)
        for f in fields(CloneSearchResult):
            assert getattr(par, f.name) == getattr(seq, f.name), (workers, f.name)


def _inline_pool(sizes):
    """A stand-in for ``ProcessPoolExecutor`` that appends its size to sizes
    and runs every part in this process, in order."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    return InlinePool


@pytest.mark.parametrize(
    "cpus,workers,parts",
    [(2, 5000, 2), (64, 3, 3), (64, 4, 4), (64, 5000, 4), (None, 5000, 1)],
)
def test_search_parts_are_capped_at_the_cpu_count(cpus, workers, parts, monkeypatch):
    # The pool is a fake that records its size and runs every part in this
    # process, so even --workers 5000 starts no process.  At m=2 there are
    # 2 * 2! = 4 pinned permutations, the most parts a search can use.  Three
    # parts get runs of 1, 1 and 2; at 4 parts each gets one, and part 0 is
    # the first simple-ray witness alone.
    sizes = []
    searches = [
        (l, None if r is None else classify_involution(l, r), scope)
        for l, r in ((2, None), (3, 1), (4, None))
        for scope in ("all", "simple")
    ]
    seqs = [search_projective_cloner(2, l, sigma, scope) for l, sigma, scope in searches]
    monkeypatch.setattr(clone_delete, "ProcessPoolExecutor", _inline_pool(sizes))
    monkeypatch.setattr(clone_delete.os, "cpu_count", lambda: cpus)
    for (l, sigma, scope), seq in zip(searches, seqs):
        sizes.clear()
        par = search_projective_cloner(2, l, sigma, scope, workers=workers)
        assert sizes == ([parts] if parts > 1 else [])
        for f in fields(CloneSearchResult):
            assert getattr(par, f.name) == getattr(seq, f.name), (l, scope, f.name)


def _record_built_perms(monkeypatch):
    """The perm of every member ``_wreath`` builds, in order.  The walk sets
    each member's fields with ``object.__setattr__``, not through
    ``__post_init__``."""
    built = []

    def setting(member, name, value):
        if name == "perm":
            built.append(value)
        object.__setattr__(member, name, value)

    counting = SimpleNamespace(__new__=object.__new__, __setattr__=setting)
    monkeypatch.setattr(operators, "object", counting, raising=False)
    return built


def _pins(perm, m, j):
    """Whether perm sends column i*m + j to row i*m + i for every i, the
    condition for any blank w^e e_j to clone every simple ray e_i."""
    return all(perm[i * m + j] == i * m + i for i in range(m))


def test_worker_chunk_builds_only_its_slice(monkeypatch):
    # At m=2, l=3 under v -> v^2 every unit is unitary, so each of the 24
    # permutations of the tensor space owns 3^4 = 81 unitaries.  The four
    # that pin a blank column have ranks 1, 3, 6 and 12.  No cloner exists,
    # so a part builds every unitary of the pinned permutations at its
    # positions, and nothing else: ranks 1 and 3 at positions [0, 2), and
    # ranks 6 and 12 at [2, 4), the last the permutation (2, 0, 1, 3).
    sigma = classify_involution(3, 1)
    _, cases = _cloner_cases(2, 3, "all", None)
    built = _record_built_perms(monkeypatch)
    ranks = {perm: rank for rank, perm in enumerate(itertools.permutations(range(4)))}
    for start, stop, want in ((0, 2, {1, 3}), (2, 4, {6, 12})):
        built.clear()
        assert _first_cloner((2, 3, sigma, cases, start, stop)) is None
        assert len(built) == len(want) * 81
        assert {ranks[perm] for perm in built} == want
    assert ranks[(2, 0, 1, 3)] == 12
    # (2, 0, 1, 3) sends column 1 to row 0, so it serves the blanks of
    # column 1: against the simple rays its first unitary clones with e_1.
    _, cases = _cloner_cases(2, 3, "simple", None)
    u, blank = _first_cloner((2, 3, sigma, cases, 3, 4))
    assert (u, blank) == (MonomialMatrix.from_permutation((2, 0, 1, 3), 3), basis_state(1, 2, 3))


@pytest.mark.parametrize("m", [2, 3])
def test_scan_builds_exactly_the_pinned_permutations(m, monkeypatch):
    # A pinned permutation fixes the m columns i*m + j of one blank column
    # j, and the column it sends to row 0 decides j: m * (m*m - m)! of them,
    # 4 at m = 2 and 2,160 of the 362,880 at m = 3.  At l = 1 each owns one
    # unitary, and no universal cloner exists, so the scan builds them all.
    n = m * m
    _, cases = _cloner_cases(m, 1, "all", None)
    built = _record_built_perms(monkeypatch)
    assert _first_cloner((m, 1, None, cases, 0, math.factorial(n))) is None
    assert len(built) == m * math.factorial(n - m)
    perms = itertools.permutations(range(n))
    pinned = [p for p in perms if any(p[j] == 0 and _pins(p, m, j) for j in range(m))]
    assert built == pinned


def test_parts_build_equal_runs_of_the_pinned_permutations(monkeypatch):
    # At m = 3, l = 1 no universal cloner exists, so each of 2 parts builds
    # its whole run: half of the 2,160 pinned permutations, in order.
    monkeypatch.setattr(clone_delete, "ProcessPoolExecutor", _inline_pool([]))
    monkeypatch.setattr(clone_delete.os, "cpu_count", lambda: 2)
    built = _record_built_perms(monkeypatch)
    parts = []
    first_cloner = clone_delete._first_cloner

    def recording(job):
        start = len(built)
        hit = first_cloner(job)
        parts.append(built[start:])
        return hit

    monkeypatch.setattr(clone_delete, "_first_cloner", recording)
    assert not search_projective_cloner(3, 1, scope="all", workers=2).found
    assert [len(part) for part in parts] == [1080, 1080]
    perms = itertools.permutations(range(9))
    pinned = [p for p in perms if any(p[j] == 0 and _pins(p, 3, j) for j in range(3))]
    assert parts[0] + parts[1] == pinned


@pytest.mark.parametrize("l,r", [(l, r) for m, l, r in SEARCH_CASES if m == 2 and l <= 4])
def test_simple_blank_clones_exactly_when_pinned(l, r):
    # The oracle for the scan's filter: at m = 2 a unitary clones the simple
    # rays against the simple blank w^e e_j exactly when its permutation
    # pins column j, whatever its scalars.  So m*l*(m*m - m)! * |E|^(m*m)
    # pairs clone, E the unitary exponents.
    m, n = 2, 4
    sigma = None if r is None else classify_involution(l, r)
    targets = simple_rays(m, l)
    blanks = [(j, basis_state(j, m, l, e)) for j in range(m) for e in range(l)]
    cloning = 0
    for u in iter_unitaries(n, l, sigma):
        for j, blank in blanks:
            clones = clones_rays(u, blank, targets)
            assert clones == _pins(u.perm, m, j), (u, blank)
            cloning += clones
    exps = len(unitary_exponents(sigma, l))
    assert cloning == m * l * math.factorial(n - m) * exps**n


def test_deletion_audit_respects_budget():
    with pytest.raises(BudgetExceededError):
        verify_deletion(4, 4, budget=155)  # 156 rays
    assert verify_deletion(4, 4, budget=156).total_rays == 156


def test_deleter_dimension_respects_budget():
    assert build_deletion_operator(40, 2, budget=1600).dim == 1600
    with pytest.raises(BudgetExceededError):
        build_deletion_operator(40, 2, budget=1599)
    # at m=2, l=1 there are 3 rays but the deleter has dimension 4
    with pytest.raises(BudgetExceededError):
        verify_deletion(2, 1, budget=3)
    assert verify_deletion(2, 1, budget=4).total_rays == 3


@pytest.mark.parametrize("m,l", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 3)])
def test_built_simple_cloner_clones_simple_rays(m, l):
    u, blank = build_simple_cloner(m, l)
    assert clones_rays(u, blank, simple_rays(m, l))


def test_built_simple_cloner_alternate_blank():
    u, blank = build_simple_cloner(3, 2, blank_index=1)
    assert blank == basis_state(1, 3, 2)
    assert clones_rays(u, blank, simple_rays(3, 2))
    with pytest.raises(ValueError):
        build_simple_cloner(3, 2, blank_index=3)


@pytest.mark.parametrize("m,l", [(2, 1), (2, 2), (3, 2)])
def test_nonsimple_rays_defeat_all_monomial_cloners(m, l):
    # support arithmetic: against a simple blank a monomial image keeps
    # |supp(phi)| points, while the clone target needs |supp(phi)|^2
    phi = _first_nonsimple_ray(m, l)
    rep = phi.representative
    size = len(rep.support())
    assert not phi.is_simple and size >= 2
    assert len(tensor(rep, rep).support()) == size**2
    u, blank = build_simple_cloner(m, l)
    assert len(u.apply(tensor(rep, blank)).support()) == size
    assert not clones_rays(u, blank, [phi])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_deletion_operator_is_almost_unitary_both_paths(m, l):
    # the cycle rule and the principal-subset scan
    op = build_deletion_operator(m, l)
    assert is_almost_unitary(op)
    assert principal_subset_scan(op)


def test_deletion_operator_layout():
    op = build_deletion_operator(2, 2)
    assert [(r + 1, c + 1) for r, c, _ in op.cells] == [(1, 1), (3, 3)]
    op3 = build_deletion_operator(3, 1)
    assert [(r + 1, c + 1) for r, c, _ in op3.cells] == [(1, 1), (4, 4), (7, 7)]
    assert all(s == one(op3.order) for _, _, s in op3.cells)


def test_deletion_operator_blank_parameter():
    op = build_deletion_operator(2, 2, blank_index=1)
    assert [(r, c) for r, c, _ in op.cells] == [(1, 1), (3, 3)]
    report = verify_deletion(2, 2, blank_index=1)
    assert report.probability == Fraction(3, 4)
    with pytest.raises(ValueError):
        build_deletion_operator(2, 2, blank_index=2)


def test_deletion_action_on_rays():
    op = build_deletion_operator(2, 2)
    blank = basis_state(0, 2, 2)
    for phi in enumerate_rays(2, 2):
        rep = phi.representative
        image = op.apply(tensor(rep, rep))
        if rep[0].is_unit:
            assert ray_of(image) == ray_of(tensor(rep, blank))
        else:
            assert image.is_zero


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("l", range(1, 5))
def test_deletion_report_counts(m, l):
    report = verify_deletion(m, l)
    # counting oracle: canonical representatives with nonzero first coordinate
    deleted = sum(1 for r in enumerate_rays(m, l) if r.representative[0].is_unit)
    assert report.rays_deleted == deleted
    assert report.total_rays == len(enumerate_rays(m, l))
    assert report.probability == Fraction(deleted, report.total_rays)
    assert report.probability == probability_a1(m, l)


def test_deletion_audit_memory_does_not_grow_with_the_rays():
    # 5,461 rays of dimension 7 at level 3: held as a list they peak at about
    # 1.45 MB, walked one at a time at a few KB (the deleter and l blanks).
    verify_deletion(2, 3)  # intern level 3 before tracing
    tracemalloc.start()
    try:
        report = verify_deletion(7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.total_rays == 5461
    assert peak < 64_000


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("l", range(1, 5))
def test_vector_audit_matches_ray_audit(m, l):
    for b in range(m):
        report = verify_deletion(m, l, blank_index=b)
        counts = (report.rays_deleted, report.rays_annihilated)
        assert counts == ray_deletion_audit(m, l, b)


def test_kernels_build_vectors_without_the_constructor_check(monkeypatch):
    # Vectors that kernels build from one level's elements skip
    # StateVector.__post_init__; the public constructors still run it.
    x, y = basis_state(0, 3, 2), basis_state(2, 3, 2, 1)
    a = MonomialMatrix.from_permutation((2, 0, 1), 2)
    s = SubunitalMatrix(3, 2, ((0, 1, unit(1, 2)),))
    check, checked = StateVector.__post_init__, []

    def counting(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    report = verify_deletion(3, 2)
    assert (report.rays_deleted, report.rays_annihilated) == (9, 4)
    tensor(x, y), a.apply(y), s.apply(y), y.scale(unit(1, 2)), ray_of(y)
    assert checked == []
    state([0, None], 2)
    assert len(checked) == 1
    StateVector((unit(1, 2),))
    assert len(checked) == 2


def test_deletion_audit_refuses_a_misrouted_deleter(monkeypatch):
    def misrouted(m, l, blank_index=0, budget=None):
        # the k = 1 cell writes to row m + blank_index + 1, not to its column
        rows = [k * m + blank_index for k in range(m)]
        rows[1] += 1
        cells = tuple((row, k * m + blank_index, one(l)) for k, row in enumerate(rows))
        return SubunitalMatrix(m * m, l, cells)

    monkeypatch.setattr(clone_delete, "build_deletion_operator", misrouted)
    with pytest.raises(AssertionError, match="deletion failed"):
        verify_deletion(3, 2)


def test_deletion_report_json_shape():
    data = verify_deletion(2, 2).to_json()
    assert data == {
        "m": 2,
        "l": 2,
        "deleted": 3,
        "annihilated": 1,
        "probability": {"num": 3, "den": 4},
        "limits": {
            "m_inf": {"num": 2, "den": 3},
            "l_inf": {"num": 1, "den": 1},
        },
    }


def test_probability_frozen_values():
    assert probability_a1(2, 2) == Fraction(3, 4)
    assert probability_a1(1, 1) == Fraction(1)
    assert probability_a1(2, 1) == Fraction(2, 3)
    assert probability_a1(3, 3) == Fraction(16, 21)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_probability_closed_form(m, l):
    assert probability_a1(m, l) == Fraction(l * (l + 1) ** (m - 1), (l + 1) ** m - 1)


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=20))
def test_probability_monotone_in_both_arguments(m, l):
    p = probability_a1(m, l)
    assert probability_a1(m + 1, l) < p  # more coordinates, easier to miss the first
    if m == 1:
        assert p == 1  # a single coordinate is always the leading one
    else:
        assert probability_a1(m, l + 1) > p


def test_probability_limits():
    assert limit_m_infinity(2) == Fraction(2, 3)
    assert limit_l_infinity() == Fraction(1)
    assert abs(probability_a1(1000, 2) - Fraction(2, 3)) < Fraction(1, 10**6)
    assert abs(probability_a1(2, 10**6) - 1) < Fraction(1, 10**6)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=6))
@settings(max_examples=30)
def test_probability_approaches_m_limit_monotonically(m, l):
    gap = limit_m_infinity(l) - probability_a1(m, l)
    next_gap = limit_m_infinity(l) - probability_a1(m + 1, l)
    assert abs(next_gap) < abs(gap)


def test_almost_unitary_of_nonsingular_is_unitarity():
    sw = MonomialMatrix.from_permutation((1, 0), 2)
    assert is_almost_unitary(sw) == is_unitary(sw)
    d = MonomialMatrix(4, (0,), (unit(1, 4),))
    assert not is_unitary(d)  # w^2 != w^0
    assert not is_almost_unitary(d)


@pytest.mark.parametrize(
    "d,l", [(d, l) for d in range(1, 4) for l in range(1, 9)] + [(4, l) for l in range(1, 4)]
)
def test_almost_unitary_fast_path_matches_subset_scan(d, l):
    # the cycle rule against the definition, on every subunital matrix
    sigmas = conjugations(l)
    for a in enumerate_subunital(d, l):
        for sigma in sigmas:
            assert is_almost_unitary(a, sigma) == principal_subset_scan(a, sigma)


def test_almost_unitary_dimension_cap():
    # no cap: the rule walks the cells once, whatever the dimension
    assert is_almost_unitary(build_deletion_operator(4, 2))  # dim 16
    assert is_almost_unitary(SubunitalMatrix(13, 2, ((0, 1, one(2)),)))
    # a 13-cycle with one non-unitary scalar at level 4 fails; opened, it passes
    cycle = [((j + 1) % 13, j, unit(1 if j == 5 else 0, 4)) for j in range(13)]
    assert not is_almost_unitary(SubunitalMatrix(13, 4, tuple(cycle)))
    assert is_almost_unitary(SubunitalMatrix(13, 4, tuple(cycle[:-1])))


def test_almost_unitary_rejects_invalid_conjugation():
    with pytest.raises(ValueError):  # v -> v^2 is no involution at level 4
        is_almost_unitary(build_deletion_operator(2, 4), classify_involution(4, 1))
    with pytest.raises(ValueError):  # an involution of level 8 at level 4
        is_almost_unitary(SubunitalMatrix(2, 4, ()), classify_involution(8, 2))


def test_almost_unitary_strictly_weaker_than_unitary():
    # a singular diagonal of units: almost unitary over level 2 but not unitary
    a = SubunitalMatrix(2, 2, ((0, 0, one(2)),))
    assert is_almost_unitary(a)
    assert not is_unitary(a)


def test_almost_unitary_scan_finds_no_cloner():
    scan = almost_unitary_cloning_fails(2, 2)
    assert scan.cloning_impossible
    assert not scan.ray.is_simple
    assert scan.operators_scanned == 1473  # all subunital 4x4 at level 2
    assert scan.almost_unitary_count == 1473  # level 2: every unit squares to one
    assert scan.pairs_checked == scan.almost_unitary_count * 4


@pytest.mark.parametrize("l", [1, 2, 3])
def test_almost_unitary_scan_needs_dimension_two(l):
    # every ray is simple at m = 1, so there is no ray to scan against
    with pytest.raises(ValueError):
        almost_unitary_cloning_fails(1, l)


def test_almost_unitary_scan_level_one():
    scan = almost_unitary_cloning_fails(2, 1)
    assert scan.cloning_impossible
    assert scan.almost_unitary_count == scan.operators_scanned == 209
