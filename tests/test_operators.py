"""Monomial operators, wreath-product groups, observables, subunital matrices."""

import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f1q import operators
from f1q.budget import BudgetExceededError
from f1q.field import classify_involution, elements, one, unit, unitary_exponents, zero
from f1q.frames import StateVector, enumerate_vectors, state
from f1q.operators import (
    MonomialMatrix,
    SubunitalMatrix,
    enumerate_GL,
    enumerate_subunital,
    format_matrix,
    gl_order,
    is_observable,
    is_unitary,
    iter_GL,
    iter_unitaries,
    matrix_to_json,
    _wreath,
    subunital_count,
    unitary_group,
    unitary_order,
)
from f1q.oracles import principal_submatrix, product_rule_observables


def conjugations(l):
    """The identity conjugation (None) and every valid involution at level l."""
    specs = (classify_involution(l, r) for r in range(1, l + 1))
    return [None] + [sigma for sigma in specs if sigma.valid]


@st.composite
def monomials(draw, max_dim=4, max_level=6):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    l = draw(st.integers(min_value=1, max_value=max_level))
    perm = draw(st.permutations(range(m)))
    exps = draw(st.lists(st.integers(min_value=0, max_value=l - 1), min_size=m, max_size=m))
    return MonomialMatrix(l, tuple(perm), tuple(unit(e, l) for e in exps))


@st.composite
def monomial_pairs(draw, max_dim=4, max_level=6):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    l = draw(st.integers(min_value=1, max_value=max_level))

    def build():
        perm = draw(st.permutations(range(m)))
        exps = draw(
            st.lists(st.integers(min_value=0, max_value=l - 1), min_size=m, max_size=m)
        )
        return MonomialMatrix(l, tuple(perm), tuple(unit(e, l) for e in exps))

    return build(), build()


@st.composite
def subunitals(draw, max_dim=4, max_level=4):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    l = draw(st.integers(min_value=1, max_value=max_level))
    k = draw(st.integers(min_value=0, max_value=d))
    rows = draw(st.permutations(range(d)))
    cols = sorted(draw(st.permutations(range(d)))[:k])
    cells = tuple(
        (rows[i], cols[i], unit(draw(st.integers(min_value=0, max_value=l - 1)), l))
        for i in range(k)
    )
    return SubunitalMatrix(d, l, cells)


def test_matrix_validation():
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 0), (one(2), one(2)))  # not a permutation
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 1), (zero(2), one(2)))  # zero scalar
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 1), (one(3), one(2)))  # level mismatch
    with pytest.raises(ValueError):
        SubunitalMatrix(2, 2, ((0, 0, one(2)), (0, 1, one(2))))  # row reused
    for dim in (0, -1):  # no dimension below 1, however it arrives
        with pytest.raises(ValueError):
            SubunitalMatrix(dim, 2, ())
    with pytest.raises(ValueError):
        SubunitalMatrix(1, 0, ())  # nor a level below 1
    for l in (2, 0):  # a monomial matrix needs a column and a level too
        with pytest.raises(ValueError, match="need dim and level >= 1"):
            MonomialMatrix(l, (), ())
    with pytest.raises(ValueError, match="need dim and level >= 1"):
        MonomialMatrix.identity(0, 2)


def test_entry_layout():
    # column j holds its scalar in row perm[j]
    a = MonomialMatrix(3, (1, 0), (unit(1, 3), unit(2, 3)))
    assert a.entry(1, 0) == unit(1, 3)
    assert a.entry(0, 1) == unit(2, 3)
    assert a.entry(0, 0).is_zero


def test_identity_swap_diagonal():
    eye = MonomialMatrix.identity(3, 2)
    x = state([0, 1, None], 2)
    assert eye.apply(x) == x
    sw = MonomialMatrix.from_permutation((1, 0), 2)
    assert sw.apply(state([0, 1], 2)) == state([1, 0], 2)
    d = MonomialMatrix(3, (0, 1), (unit(1, 3), unit(2, 3)))
    assert d.apply(state([0, 0], 3)) == state([1, 2], 3)


@given(monomial_pairs())
def test_composition_agrees_with_application(pair):
    a, b = pair
    for x in enumerate_vectors(a.dim, a.order)[:8]:
        assert (a @ b).apply(x) == a.apply(b.apply(x))


@given(monomials())
def test_inverse_composes_to_identity(a):
    eye = MonomialMatrix.identity(a.dim, a.order)
    assert a @ a.inverse() == eye
    assert a.inverse() @ a == eye


@given(monomials())
def test_transpose_is_involutive(a):
    assert a.transpose().transpose() == a
    for i in range(a.dim):
        for j in range(a.dim):
            assert a.transpose().entry(i, j) == a.entry(j, i)


@given(monomial_pairs())
def test_transpose_reverses_products(pair):
    a, b = pair
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_conj_applies_involution_entrywise():
    sigma = classify_involution(3, 1)
    a = MonomialMatrix(3, (0, 1), (unit(1, 3), unit(2, 3)))
    c = a.conj(sigma)
    assert c.scalars == (unit(2, 3), unit(1, 3))
    assert a.conj(None) == a


def test_conj_and_unitary_order_check_the_conjugation():
    with pytest.raises(ValueError):
        MonomialMatrix.identity(2, 8).conj(classify_involution(8, 3))  # v -> v^4
    with pytest.raises(ValueError):
        unitary_order(2, 8, classify_involution(3, 1))  # an involution of level 3


@pytest.mark.parametrize("m,l", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3)])
def test_gl_enumeration_count(m, l):
    group = enumerate_GL(m, l)
    assert len(group) == gl_order(m, l) == l**m * math.factorial(m)
    assert len(set(group)) == len(group)
    # permutations outer, column exponents inner, each in lexicographic order
    assert group == sorted(group, key=lambda a: (a.perm, [s.exp for s in a.scalars]))
    assert list(iter_GL(m, l)) == group


def test_iter_gl_is_lazy_and_checks_budget_at_call(monkeypatch):
    with pytest.raises(BudgetExceededError):
        iter_GL(4, 2, budget=383)  # raised at the call, before any yield
    # The walk sets each member's fields with ``object.__setattr__``, not
    # through ``__post_init__``; record every perm it sets.
    built = []

    def setting(member, name, value):
        if name == "perm":
            built.append(value)
        object.__setattr__(member, name, value)

    counting = SimpleNamespace(__new__=object.__new__, __setattr__=setting)
    monkeypatch.setattr(operators, "object", counting, raising=False)
    gl = iter_GL(4, 2, budget=384)
    assert built == []
    first = next(gl)
    assert built == [(0, 1, 2, 3)]
    assert first == MonomialMatrix.identity(4, 2)


def assert_built_as_constructed(walked, expected):
    assert walked == expected
    assert [vars(a) for a in walked] == [vars(b) for b in expected]
    assert all(type(a.perm) is tuple and type(a.scalars) is tuple for a in walked)


@pytest.mark.parametrize("m,l", [(m, l) for m in range(1, 5) for l in range(1, 4)])
def test_gl_walk_matches_the_validating_constructor(m, l):
    # The walk skips __post_init__; every member must still be the matrix the
    # checking constructor builds from the same fields, in the same order.
    units = [unit(e, l) for e in range(l)]
    expected = [
        MonomialMatrix(l, perm, scalars)
        for perm in itertools.permutations(range(m))
        for scalars in itertools.product(units, repeat=m)
    ]
    assert_built_as_constructed(list(iter_GL(m, l)), expected)


@pytest.mark.parametrize("m,l", [(m, l) for m in range(1, 4) for l in range(1, 9)])
def test_unitary_walk_matches_the_validating_constructor(m, l):
    for sigma in conjugations(l):
        units = [unit(e, l) for e in unitary_exponents(sigma, l)]
        expected = [
            MonomialMatrix(l, perm, scalars)
            for perm in itertools.permutations(range(m))
            for scalars in itertools.product(units, repeat=m)
        ]
        assert_built_as_constructed(list(iter_unitaries(m, l, sigma)), expected)


@pytest.mark.parametrize("perm", [(0, 0, 2), (0, 1), (1, 2, 3), (0, 1, 2, 3)])
def test_walk_refuses_a_non_permutation(perm):
    walk = _wreath(3, 2, range(2), [[2, 1, 0], perm])
    assert next(walk).perm == (2, 1, 0)
    with pytest.raises(ValueError, match="is not a permutation"):
        list(walk)


def test_walk_refuses_a_scalar_that_is_not_a_unit():
    with pytest.raises(ValueError, match="unit scalars"):
        next(_wreath(2, 3, [0, None]))


def test_gl_frozen_order():
    assert gl_order(2, 2) == 8


def test_enumeration_respects_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_GL(4, 2, budget=100)
    with pytest.raises(BudgetExceededError):
        enumerate_subunital(4, 2, budget=10)


@given(monomials(max_dim=3, max_level=4))
def test_group_closure_under_product_and_inverse(a):
    # image of apply is again a frame vector with full support permuted
    x = state([0] * a.dim, a.order)
    y = a.apply(x)
    assert len(y.support()) == a.dim


def test_unitary_group_frozen_orders():
    assert len(unitary_group(2, 1)) == 18
    assert len(unitary_group(3, 1)) == 162
    assert len(unitary_group(2, 2)) == 32


@pytest.mark.parametrize("m,r", [(2, 1), (3, 1), (2, 2), (1, 3)])
def test_unitary_group_is_wreath_product(m, r):
    group = unitary_group(m, r)
    assert len(group) == (r + 2) ** m * math.factorial(m)
    # scalars of unitary matrices are exactly the (r+2)-nd roots inside mu_{r(r+2)}
    level = r * (r + 2)
    allowed = {s for u in group for s in u.scalars}
    assert allowed == {unit(r * k, level) for k in range(r + 2)}


@pytest.mark.parametrize("m,r", [(2, 1), (2, 2)])
def test_unitary_group_closure(m, r):
    group = unitary_group(m, r)
    members = set(group)
    sigma = classify_involution(r * (r + 2), r)
    for a in group[:6]:
        assert a.inverse() in members
        for b in group[:6]:
            assert a @ b in members
        assert a.transpose().conj(sigma) @ a == MonomialMatrix.identity(m, a.order)


@pytest.mark.parametrize(
    "m,l", [(m, l) for m in range(1, 4) for l in range(1, 9)] + [(4, 8)]
)
def test_unitary_fast_paths_match_product_rule(m, l):
    # One pass over GL: is_unitary agrees with the product rule on every
    # matrix, and iter_unitaries yields exactly the product-rule filter of
    # GL, as lists in the same order.
    sigmas = conjugations(l)
    generated = [iter_unitaries(m, l, sigma) for sigma in sigmas]
    counts = [0] * len(sigmas)
    eye = MonomialMatrix.identity(m, l)
    for a in enumerate_GL(m, l):
        adjoint = a.transpose()
        for k, sigma in enumerate(sigmas):
            # the product rule: sigma(A^T) A = I, by matrix algebra
            unitary = adjoint.conj(sigma) @ a == eye
            assert is_unitary(a, sigma) == unitary
            if unitary:
                assert next(generated[k]) == a
                counts[k] += 1
    for sigma, gen, count in zip(sigmas, generated, counts):
        assert next(gen, None) is None
        assert unitary_order(m, l, sigma) == count


def test_unitary_order_counts_scalar_groups_past_2_63():
    # v -> v^(r+1) at level r(r+2) makes all r+2 roots of unity unitary; at
    # r = 10^19 that is more members than len() of a range can report
    r = 10**19
    l = r * (r + 2)
    assert unitary_order(2, l, classify_involution(l, r)) == 2 * (r + 2) ** 2


def test_unitaries_checked_against_budget_not_gl():
    assert len(unitary_group(4, 2, budget=10_000)) == 6144
    assert gl_order(4, 8) == 98304
    with pytest.raises(BudgetExceededError):
        unitary_group(4, 2, budget=6143)
    with pytest.raises(BudgetExceededError):
        iter_unitaries(4, 8, budget=100)  # raised at the call, before any yield


def test_iter_unitaries_rejects_bad_conjugation():
    with pytest.raises(ValueError):
        iter_unitaries(2, 4, classify_involution(8, 2))  # involution of level 8
    with pytest.raises(ValueError):
        iter_unitaries(2, 4, classify_involution(4, 1))  # v -> v^2 is no involution
    with pytest.raises(ValueError):
        iter_unitaries(0, 4)


@pytest.mark.parametrize("m", range(1, 5))
def test_level_two_unitary_is_whole_gl(m):
    gl = enumerate_GL(m, 2)
    assert all(is_unitary(a) for a in gl)
    assert len(gl) == gl_order(m, 2)


def test_singular_subunital_never_unitary():
    a = SubunitalMatrix(2, 2, ((0, 0, one(2)),))
    assert not is_unitary(a)


def test_observables_frozen_count():
    obs = [h for h in enumerate_GL(2, 2) if is_observable(h)]
    assert len(obs) == 6


@pytest.mark.parametrize("m", range(1, 5))
def test_level_two_observables_are_square_roots_of_identity(m):
    eye = MonomialMatrix.identity(m, 2)
    for h in enumerate_GL(m, 2):
        assert is_observable(h) == (h @ h == eye)


@pytest.mark.parametrize("m,l", [(m, l) for m in range(1, 4) for l in range(1, 7)])
def test_observable_rule_matches_product_rule(m, l):
    # is_observable reads the permutation and scalars; the oracle filters GL
    # by H = sigma(H^T) in matrix algebra.  Equal lists mean equal verdicts
    # on every member.
    gl = enumerate_GL(m, l)
    for sigma in conjugations(l):
        rule = [h for h in gl if is_observable(h, sigma)]
        assert rule == product_rule_observables(m, l, sigma)


def test_observable_with_involution():
    sigma = classify_involution(3, 1)
    # diagonal w^1 is not self-adjoint: sigma(w^1) = w^2 != w^1
    d = MonomialMatrix(3, (0,), (unit(1, 3),))
    assert not is_observable(d, sigma)
    assert is_observable(MonomialMatrix.identity(2, 3), sigma)


@pytest.mark.parametrize("d,l", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2)])
def test_subunital_enumeration_count(d, l):
    all_matrices = enumerate_subunital(d, l)
    assert len(all_matrices) == subunital_count(d, l)
    assert len(set(all_matrices)) == len(all_matrices)
    want = sum(
        math.comb(d, k) ** 2 * math.factorial(k) * l**k for k in range(d + 1)
    )
    assert subunital_count(d, l) == want


def test_subunital_apply_never_needs_addition():
    # one entry per row means each output coordinate has at most one term
    a = SubunitalMatrix(3, 2, ((0, 1, one(2)), (2, 2, unit(1, 2))))
    y = a.apply(state([0, 0, 0], 2))
    assert y == state([0, None, 1], 2)


def _applied(a, x):
    """Reference image: entry i is the cell scalar A[i][j] times x[j],
    multiplied on its own, and zero where row i is empty."""
    out = [zero(a.order)] * a.dim
    for i, j, s in a.cells:
        out[i] = s * x[j]
    return StateVector(tuple(out))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_apply_builds_the_checked_vector(l):
    # apply skips the vector constructor's check; its image must still be the
    # checked vector, its entries a tuple of one level
    cases = [(2, iter_GL(2, l)), (3, iter_GL(3, l)), (2, enumerate_subunital(2, l))]
    for m, matrices in cases:
        vectors = [StateVector(c) for c in itertools.product(elements(l), repeat=m)]
        for a in matrices:
            for x in vectors:
                y = a.apply(x)
                assert y == _applied(a, x), (a, x)
                assert type(y.entries) is tuple
                assert {e.order for e in y.entries} == {l}
    for a in (MonomialMatrix.identity(2, 2), SubunitalMatrix(2, 2, ())):
        with pytest.raises(ValueError, match="level mismatch"):
            a.apply(state([0, 1], 3))


@given(monomials())
def test_monomial_cells_are_the_subunital_cells(a):
    assert a.cells == SubunitalMatrix(a.dim, a.order, a.cells).cells
    assert [i for i, _, _ in a.cells] == list(range(a.dim))  # row order
    assert all(a.entry(i, j) == s for i, j, s in a.cells)


@given(subunitals())
def test_subunital_monomial_round_trip(a):
    if a.is_monomial:
        b = a.to_monomial()
        assert SubunitalMatrix(b.dim, b.order, b.cells) == a


def test_principal_submatrix_reindexes():
    a = SubunitalMatrix(3, 2, ((0, 1, one(2)), (2, 2, unit(1, 2))))
    b = principal_submatrix(a, (0, 2))
    assert b.dim == 2
    assert b.cells == ((1, 1, unit(1, 2)),)  # the (2,2) cell, reindexed
    c = principal_submatrix(a, (1, 2))
    assert c.cells == ((1, 1, unit(1, 2)),)


def test_text_format_is_one_based():
    a = MonomialMatrix.from_permutation((1, 0), 2)
    assert format_matrix(a) == "2@2\n1 2 w^0\n2 1 w^0"
    b = SubunitalMatrix(3, 4, ((2, 0, unit(3, 4)), (0, 1, one(4))))
    assert format_matrix(b) == str(b) == "3@4\n1 2 w^0\n3 1 w^3"
    assert matrix_to_json(b) == {"dim": 3, "l": 4, "entries": [[1, 2, "w^0"], [3, 1, "w^3"]]}
