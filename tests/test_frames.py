"""State frames: partial forms, orthogonality, rays, tensor products."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f1q.budget import BudgetExceededError
from f1q.field import classify_involution, unit, zero
from f1q.frames import (
    StateVector,
    basis_state,
    enumerate_rays,
    enumerate_vectors,
    orthogonal,
    perp_space,
    ray_count,
    ray_of,
    simple_rays,
    standard_form,
    state,
    tensor,
)

levels = st.integers(min_value=1, max_value=6)
dims = st.integers(min_value=1, max_value=5)


@st.composite
def states(draw, max_dim=5, max_level=6):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    l = draw(st.integers(min_value=1, max_value=max_level))
    exps = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=l - 1)),
            min_size=m,
            max_size=m,
        )
    )
    return state(exps, l)


@st.composite
def state_pairs(draw, max_dim=5, max_level=6):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    l = draw(st.integers(min_value=1, max_value=max_level))
    entry = st.one_of(st.none(), st.integers(min_value=0, max_value=l - 1))
    xs = draw(st.lists(entry, min_size=m, max_size=m))
    ys = draw(st.lists(entry, min_size=m, max_size=m))
    return state(xs, l), state(ys, l)


def test_state_basics():
    s = state([0, None, 1], 2)
    assert s.dim == 3 and s.order == 2
    assert s.support() == (0, 2)
    assert s.cosupport() == (1,)
    assert not s.is_zero and not s.is_simple
    assert str(s) == "(w^0,0,w^1)@2"


def test_state_rejects_mixed_levels():
    with pytest.raises(ValueError):
        StateVector((unit(0, 2), unit(0, 3)))
    with pytest.raises(ValueError):
        StateVector(())


def test_zero_and_basis_states():
    assert state([None] * 3, 2).is_zero
    e1 = basis_state(1, 3, 2)
    assert e1.support() == (1,)
    assert e1.is_simple
    assert basis_state(1, 3, 2, exp=1)[1] == unit(1, 2)
    with pytest.raises(ValueError):
        basis_state(3, 3, 2)


@given(states())
def test_scaling_preserves_support(s):
    for e in range(s.order):
        assert s.scale(unit(e, s.order)).support() == s.support()


def test_form_zero_one_many_terms():
    l = 4
    x = state([0, None, 2], l)
    # disjoint supports: no surviving term, defined zero
    assert standard_form(x, state([None, 1, None], l)).value == zero(l)
    # one overlap at index 2: sigma defaults to identity, w^2 * w^1 = w^3
    v = standard_form(x, state([None, None, 1], l))
    assert v.is_defined and v.value == unit(3, l)
    # two overlaps: sum does not exist
    assert not standard_form(x, x).is_defined


def test_form_with_involution():
    sigma = classify_involution(3, 1)  # v -> v^2 on mu_3
    x = state([1, None], 3)
    y = state([1, None], 3)
    v = standard_form(x, y, sigma)
    assert v.value == unit(2 + 1, 3)  # sigma(w) * w = w^3 = w^0
    assert v.value == unit(0, 3)


def test_form_rejects_wrong_sigma():
    bad = classify_involution(5, 2)  # not valid
    x = state([0], 5)
    with pytest.raises(ValueError):
        standard_form(x, x, bad)
    wrong_level = classify_involution(3, 1)
    with pytest.raises(ValueError):
        standard_form(x, x, wrong_level)


@given(state_pairs())
def test_form_definedness_is_overlap_count(pair):
    x, y = pair
    overlap = len(set(x.support()) & set(y.support()))
    assert standard_form(x, y).is_defined == (overlap <= 1)


@given(state_pairs())
def test_orthogonality_is_disjoint_support(pair):
    x, y = pair
    assert orthogonal(x, y) == (set(x.support()).isdisjoint(y.support()))
    if orthogonal(x, y):
        v = standard_form(x, y)
        assert v.is_defined and v.value.is_zero


@given(state_pairs())
def test_form_is_symmetric_up_to_conjugation(pair):
    # with identity conjugation the form is plainly symmetric
    x, y = pair
    assert standard_form(x, y).is_defined == standard_form(y, x).is_defined
    if standard_form(x, y).is_defined:
        assert standard_form(x, y).value == standard_form(y, x).value


def test_perp_space():
    x = state([0, None, None, 1], 3)
    p = perp_space(x)
    assert p.dimension == 2
    assert p.free_indices == (1, 2)
    assert p.vector_count == 16  # (3+1)^2
    assert all(orthogonal(x, basis_state(i, 4, 3)) for i in p.free_indices)
    vectors = list(p.vectors())
    assert len(vectors) == 16
    assert all(p.contains(v) for v in vectors)
    assert not p.contains(x)


def test_perp_of_zero_vector_rejected():
    with pytest.raises(ValueError):
        perp_space(state([None] * 3, 2))


@given(states())
def test_perp_dimension_complements_support(s):
    if not s.is_zero:
        assert perp_space(s).dimension == s.dim - len(s.support())


def test_ray_canonicalization():
    r = ray_of(state([1, 1], 2))
    assert str(r.representative) == "(w^0,w^0)@2"
    assert r == ray_of(state([0, 0], 2))
    assert r != ray_of(state([0, 1], 2))


@given(states())
def test_rays_ignore_global_scaling(s):
    if not s.is_zero:
        for e in range(s.order):
            assert ray_of(s.scale(unit(e, s.order))) == ray_of(s)


def test_ray_of_zero_rejected():
    with pytest.raises(ValueError):
        ray_of(state([None] * 2, 2))


def test_vector_enumeration_counts():
    for m in range(1, 4):
        for l in range(1, 4):
            nonzero = enumerate_vectors(m, l)
            assert len(nonzero) == (l + 1) ** m - 1


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("l", range(1, 5))
def test_ray_count_against_enumeration(m, l):
    # counting oracle: distinct canonical representatives among all vectors
    seen = {ray_of(v).representative for v in enumerate_vectors(m, l)}
    assert len(seen) == ray_count(m, l) == len(enumerate_rays(m, l))
    assert ray_count(m, l) == ((l + 1) ** m - 1) // l


def test_frozen_ray_counts():
    assert ray_count(2, 2) == 4
    assert ray_count(3, 3) == 21
    assert ray_count(2, 1) == 3


def test_simple_rays():
    rs = simple_rays(3, 4)
    assert len(rs) == 3
    assert all(r.is_simple for r in rs)
    assert [r.representative.support() for r in rs] == [(0,), (1,), (2,)]


def test_tensor_row_major_layout():
    x = state([0, None], 2)
    y = state([None, 1], 2)
    t = tensor(x, y)
    # entry (i, j) of the product sits at i*dim(y) + j
    assert t.dim == 4
    assert t.support() == (1,)
    assert t[1] == unit(1, 2)


def _entrywise_tensor(x, y):
    """Reference product: every entry x[i] * y[j] multiplied on its own."""
    return StateVector(tuple(x[i] * y[j] for i in range(x.dim) for j in range(y.dim)))


def assert_constructed(v, expected):
    """A kernel's vector, which skips the constructor's check, must be the
    checked ``expected``: equal, its entries a tuple of one level."""
    assert v == expected, (v, expected)
    assert type(v.entries) is tuple
    assert {e.order for e in v.entries} == {expected.order}


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_tensor_matches_entrywise_product(l):
    # every pair of nonzero vectors of dimension <= 3, so repeated rows (equal
    # entries of x), w^0 rows (the row y itself) and zero rows all occur
    vectors = [v for m in (1, 2, 3) for v in _all_vectors(m, l)[1:]]
    for x, y in itertools.product(vectors, repeat=2):
        assert_constructed(tensor(x, y), _entrywise_tensor(x, y))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_scaling_matches_entrywise_product(l):
    for x in (v for m in (1, 2, 3) for v in _all_vectors(m, l)):
        for s in (unit(e, l) for e in range(l)):
            assert_constructed(x.scale(s), StateVector(tuple(e * s for e in x)))
    with pytest.raises(ValueError, match="levels 3 and 2"):
        state([0, 1], 2).scale(unit(1, 3))


def test_tensor_rejects_level_mismatch():
    with pytest.raises(ValueError, match="level mismatch: 2 vs 3"):
        tensor(state([0, 1], 2), state([0, 2], 3))


@given(state_pairs(max_dim=3, max_level=4))
def test_tensor_support_is_product(pair):
    x, y = pair
    t = tensor(x, y)
    want = {i * y.dim + j for i in x.support() for j in y.support()}
    assert set(t.support()) == want


@given(state_pairs(max_dim=3, max_level=4))
def test_tensor_of_rays_well_defined(pair):
    x, y = pair
    if not x.is_zero and not y.is_zero:
        s = unit(1, x.order)
        assert ray_of(tensor(x.scale(s), y)) == ray_of(tensor(x, y.scale(s)))


def test_enumeration_order_is_deterministic():
    assert [str(v) for v in enumerate_vectors(1, 2)] == ["(w^0)@2", "(w^1)@2"]
    first = enumerate_vectors(2, 2)[0]
    assert str(first) == "(0,w^0)@2"  # zero sorts before units


def _all_vectors(m, l):
    choices = [zero(l), *(unit(e, l) for e in range(l))]
    return [StateVector(c) for c in itertools.product(choices, repeat=m)]


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("l", range(1, 5))
def test_enumerations_match_the_filters_they_replace(m, l):
    # the enumerations skip the vector constructor's check, so each vector is
    # also compared with the checked one, field types and level included
    everything = _all_vectors(m, l)
    pairs = list(zip(enumerate_vectors(m, l), everything[1:], strict=True))
    canonical = [v for v in everything[1:] if ray_of(v).representative == v]
    rays = [r.representative for r in enumerate_rays(m, l)]
    pairs += zip(rays, canonical, strict=True)
    for v in everything[1:]:
        free = set(perp_space(v).free_indices)
        members = [w for w in everything if set(w.support()) <= free]
        pairs += zip(perp_space(v).vectors(), members, strict=True)
    for built, checked in pairs:
        assert_constructed(built, checked)


def test_enumerations_check_the_budget_first():
    # (2+1)^3 = 27 vectors, 13 rays; the perp space of e_0 holds 9 vectors
    assert len(enumerate_vectors(3, 2, budget=27)) == 26
    assert len(enumerate_rays(3, 2, budget=13)) == 13
    p = perp_space(basis_state(0, 3, 2))
    assert len(list(p.vectors(budget=9))) == 9
    with pytest.raises(BudgetExceededError):
        enumerate_vectors(3, 2, budget=26)
    with pytest.raises(BudgetExceededError):
        enumerate_rays(3, 2, budget=12)
    with pytest.raises(BudgetExceededError):
        p.vectors(budget=8)  # refused at call time, before iteration
    # 10^30 candidates: refused at once under the default budget
    with pytest.raises(BudgetExceededError):
        enumerate_vectors(30, 9)
    with pytest.raises(BudgetExceededError):
        enumerate_rays(30, 9)
    with pytest.raises(BudgetExceededError):
        perp_space(basis_state(0, 31, 9)).vectors()
