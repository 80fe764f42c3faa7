"""Ground arithmetic: exponent elements, power maps, automorphisms, involutions."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f1q.field import (
    F1Element,
    automorphism_group,
    check_conjugation,
    classify_involution,
    elements,
    interned,
    one,
    totient,
    unit,
    unitary_exponents,
    units,
    zero,
)
from f1q.frames import StateVector, state, tensor
from f1q.oracles import brute_force_exponents, involution_brute_force

levels = st.integers(min_value=1, max_value=24)
exponents = st.integers(min_value=-100, max_value=100)


@st.composite
def level_elements(draw, min_level=1, max_level=24):
    l = draw(st.integers(min_value=min_level, max_value=max_level))
    if draw(st.booleans()):
        return zero(l)
    return unit(draw(exponents), l)


def test_element_basics():
    assert str(zero(3)) == "0"
    assert str(unit(0, 3)) == "w^0"
    assert str(unit(5, 3)) == "w^2"  # exponent reduced mod level
    assert zero(3).is_zero and not zero(3).is_unit
    assert unit(1, 3).is_unit and not unit(1, 3).is_zero
    assert one(7) == unit(0, 7)


def test_element_count():
    for l in range(1, 10):
        assert len(elements(l)) == l + 1
        assert len(units(l)) == l


def test_level_one_has_single_unit():
    # plain F_1: {0, w^0}, no special-casing anywhere
    assert units(1) == [one(1)]
    assert unit(17, 1) == one(1)
    assert one(1) * one(1) == one(1)


@given(level_elements(), level_elements())
def test_multiply_requires_matching_levels(x, y):
    if x.order == y.order:
        assert (x * y).order == x.order
    else:
        with pytest.raises(ValueError):
            x * y


@given(st.integers(min_value=1, max_value=24), exponents, exponents)
def test_units_multiply_by_exponent_addition(l, a, b):
    assert unit(a, l) * unit(b, l) == unit(a + b, l)


@given(level_elements())
def test_zero_absorbs(x):
    assert x * zero(x.order) == zero(x.order)


@given(level_elements(), st.integers(min_value=1, max_value=50))
def test_power_matches_repeated_product(x, d):
    acc = x
    for _ in range(d - 1):
        acc = acc * x
    assert x**d == acc


def test_zero_power_rejects_nonpositive():
    with pytest.raises(ValueError):
        zero(3) ** 0


@given(st.integers(min_value=1, max_value=24), exponents)
def test_inverse(l, e):
    x = unit(e, l)
    assert x * x.inverse() == one(l)
    with pytest.raises(ZeroDivisionError):
        zero(l).inverse()


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12), level_elements(max_level=12))
def test_frobenius_composes_multiplicatively(d1, d2, x):
    assert (x**d2) ** d1 == x ** (d1 * d2)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=24), exponents, exponents)
def test_frobenius_is_multiplicative(d, l, a, b):
    x, y = unit(a, l), unit(b, l)
    assert (x * y) ** d == x**d * y**d


def test_totient_small_values():
    assert [totient(l) for l in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_automorphism_group_frozen_values():
    assert automorphism_group(1) == [1]
    assert automorphism_group(2) == [1]
    assert automorphism_group(12) == [1, 5, 7, 11]


@given(st.integers(min_value=1, max_value=24))
def test_automorphism_count_is_totient(l):
    assert len(automorphism_group(l)) == totient(l)


@pytest.mark.parametrize("l", range(1, 13))
def test_automorphisms_against_permutation_search(l):
    # the oracle walks multiplication-preserving bijections of all l+1 elements
    assert sorted(brute_force_exponents(l)) == sorted(automorphism_group(l))


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24))
def test_automorphism_exponents_act_as_automorphisms(l, d):
    if d in automorphism_group(l):
        images = {u**d for u in units(l)}
        assert len(images) == l  # bijective on units


def test_involution_frozen_examples():
    assert classify_involution(8, 2).valid  # 8 | 2*4 and 8 does not divide 2
    assert not classify_involution(8, 8).valid  # trivial: v -> v^9 = v
    assert not classify_involution(5, 2).valid  # 5 does not divide 8
    assert classify_involution(3, 1).valid  # conjugation on mu_3
    assert not classify_involution(1, 1).valid
    assert not classify_involution(2, 1).valid


def test_involution_fixed_field():
    spec = classify_involution(8, 2)
    assert spec.fixed_field_order == 2
    assert spec.fixed_elements() == [zero(8), unit(0, 8), unit(4, 8)]


def test_involution_application():
    spec = classify_involution(3, 1)
    assert spec(unit(1, 3)) == unit(2, 3)
    assert spec(spec(unit(1, 3))) == unit(1, 3)
    with pytest.raises(ValueError):
        spec(unit(1, 5))  # level mismatch


@pytest.mark.parametrize("m", range(1, 21))
@pytest.mark.parametrize("r", range(1, 9))
def test_involution_predicate_matches_brute_force(m, r):
    assert classify_involution(m, r).valid == involution_brute_force(m, r)


@given(st.integers(min_value=1, max_value=36), st.integers(min_value=1, max_value=12))
def test_valid_involutions_square_to_identity(m, r):
    spec = classify_involution(m, r)
    if spec.valid:
        for x in elements(m):
            assert spec(spec(x)) == x
        assert any(spec(u) != u for u in units(m))  # nontrivial


@given(st.integers(min_value=1, max_value=36), st.integers(min_value=1, max_value=12))
def test_sub_condition_implies_coprime_exponent(m, r):
    from math import gcd

    spec = classify_involution(m, r)
    if spec.sub_ok:
        assert gcd(r + 1, m) == 1  # bijectivity comes free with SUB


@given(st.integers(min_value=1, max_value=36), st.integers(min_value=1, max_value=12))
def test_fixed_field_is_gcd_subfield(m, r):
    from math import gcd

    spec = classify_involution(m, r)
    if spec.valid:
        fixed_units = [u for u in units(m) if spec(u) == u]
        assert len(fixed_units) == gcd(m, r)


def test_check_conjugation_returns_the_exponent():
    assert check_conjugation(None, 1) == check_conjugation(None, 12) == 1
    assert check_conjugation(classify_involution(8, 2), 8) == 3  # v -> v^3
    spec = classify_involution(3, 1)
    assert all(spec(u) == u ** check_conjugation(spec, 3) for u in units(3))


def test_unitary_exponents_match_brute_filter():
    # every level below 200 under the identity and every valid involution
    pairs = 0
    for l in range(1, 200):
        specs = (classify_involution(l, r) for r in range(1, l + 1))
        for sigma in [None] + [spec for spec in specs if spec.valid]:
            d = 1 if sigma is None else sigma.r + 1
            brute = [e for e in range(l) if (d + 1) * e % l == 0]
            assert list(unitary_exponents(sigma, l)) == brute, (l, sigma)
            pairs += 1
    assert pairs == 752


def test_unitary_exponents_check_the_conjugation():
    with pytest.raises(ValueError):
        unitary_exponents(classify_involution(3, 1), 8)
    with pytest.raises(ValueError):
        unitary_exponents(classify_involution(8, 3), 8)


def test_element_equality_is_structural():
    assert unit(3, 5) == unit(8, 5)
    assert unit(1, 5) != unit(1, 10)
    assert F1Element(5, None) == zero(5)


@given(st.integers(min_value=1, max_value=24), exponents)
def test_elements_are_interned(l, e):
    assert unit(e, l) is unit(e + l, l) is F1Element(l, e % l)
    assert zero(l) is F1Element(l, None)
    x = unit(e, l)
    assert x * unit(1, l) is unit(e + 1, l)
    assert x**3 is unit(3 * e, l)
    assert x.inverse() is unit(-e, l)


@given(level_elements())
def test_interned_elements_survive_copy_and_pickle(x):
    assert pickle.loads(pickle.dumps(x)) is x
    assert copy.deepcopy(x) is x
    assert copy.copy(x) is x


@given(st.integers(min_value=1, max_value=24), exponents)
def test_element_hash_is_the_field_tuple_hash(l, e):
    assert hash(unit(e, l)) == hash((l, e % l))
    assert hash(zero(l)) == hash((l, None))


def test_elements_are_immutable():
    x = unit(2, 5)
    with pytest.raises(AttributeError):
        x.exp = 3
    with pytest.raises(AttributeError):
        x.order = 7
    with pytest.raises(AttributeError):
        del x.exp
    assert x is unit(2, 5) and x.exp == 2


def test_element_errors_kept():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            F1Element(bad, 1)
        with pytest.raises(ValueError):
            zero(bad)
    with pytest.raises(ValueError):
        unit(1, 3) * unit(1, 4)
    with pytest.raises(ValueError):
        zero(3) * unit(1, 4)


def test_construction_hooks_kept():
    # Per-element hooks that outside instrumentation wraps by name.
    assert "__post_init__" in vars(F1Element)
    assert "__mul__" in vars(F1Element)
    assert "__post_init__" in vars(StateVector)


def test_interning_is_lazy_at_huge_levels():
    l = 10**9
    x = state([1, None, 5], l)
    square = tensor(x, x)
    assert [e.exp for e in square] == [2, None, 6, None, None, None, 6, None, 10]
    assert len(interned(l)) <= 8
    with pytest.raises(KeyError):
        interned(l)[l]  # tables take reduced exponents only
