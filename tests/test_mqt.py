"""Quadratic extension fields, Hermitian forms, and the comparison table."""

import itertools
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1q.budget import BudgetExceededError
from f1q.oracles import dense_monomial_scan
from f1q.mqt import (
    born_value,
    dictionary_table,
    gf_build,
    hermitian_form,
    monomial_unitary_entries,
)


def test_build_rejects_bad_q():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            gf_build(bad)
    with pytest.raises(ValueError):
        gf_build(17)  # prime but above the desk-scale cap
    # the cap is tested before primality: a huge q costs no trial division
    for huge in (10**18 + 3, 10**400 + 1):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            gf_build(huge)
        assert time.perf_counter() - start < 1


def test_modulus_choice_is_lexicographic():
    assert gf_build(2).modulus == (1, 1)  # t^2+t+1, the only option
    assert gf_build(3).modulus == (0, 1)  # t^2+1
    assert gf_build(2).modulus_string() == "t^2+t+1"
    assert gf_build(3).modulus_string() == "t^2+1"


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_modulus_is_irreducible(q):
    b, c = gf_build(q).modulus
    assert all((x * x + b * x + c) % q for x in range(q))


@pytest.mark.parametrize("q", [2, 3])
def test_field_axioms_exhaustive(q):
    f = gf_build(q)
    elems = f.elements()
    assert len(elems) == q * q
    for x in elems:
        assert f.add(x, f.zero) == x
        assert f.mul(x, f.one) == x
        assert f.add(x, f.neg(x)) == f.zero
        if x != f.zero:
            assert f.mul(x, f.inverse(x)) == f.one
    for x in elems:
        for y in elems:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            for z in elems:
                assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
                assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@st.composite
def field_and_elements(draw, count=3):
    q = draw(st.sampled_from([5, 7, 11, 13]))
    f = gf_build(q)
    xs = tuple(
        (draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)))
        for _ in range(count)
    )
    return f, xs


@given(field_and_elements())
@settings(max_examples=150)
def test_field_axioms_randomized(fx):
    f, (x, y, z) = fx
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    if x != f.zero:
        assert f.mul(x, f.inverse(x)) == f.one


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_multiplicative_group_is_cyclic(q):
    f = gf_build(q)
    n = q * q - 1
    orders = set()
    for x in f.units():
        k = 1
        acc = x
        while acc != f.one:
            acc = f.mul(acc, x)
            k += 1
        orders.add(k)
        assert n % k == 0
    assert n in orders  # a generator exists


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_conjugation_is_involutory_with_fixed_field_q(q):
    f = gf_build(q)
    fixed = [x for x in f.elements() if f.is_fixed(x)]
    assert len(fixed) == q
    assert fixed == [(c, 0) for c in range(q)]  # the prime subfield
    for x in f.elements():
        assert f.conj(f.conj(x)) == x
    for x in f.elements():
        for y in f.elements():
            assert f.conj(f.mul(x, y)) == f.mul(f.conj(x), f.conj(y))
            assert f.conj(f.add(x, y)) == f.add(f.conj(x), f.conj(y))


def test_conjugation_on_f4_swaps_the_two_generators():
    f = gf_build(2)
    assert f.conj(f.t) == f.mul(f.t, f.t)
    assert f.conj(f.t) != f.t


def test_element_formatting():
    f = gf_build(3)
    assert f.format_element(f.zero) == "0"
    assert f.format_element(f.one) == "1"
    assert f.format_element(f.t) == "t"
    assert f.format_element((2, 1)) == "t+2"
    assert f.format_element((0, 2)) == "2t"


def test_hermitian_form_basics():
    f = gf_build(2)
    e1 = (f.one, f.zero)
    assert hermitian_form(f, e1, e1) == f.one
    x = (f.t, f.zero)
    assert hermitian_form(f, x, x) == f.one  # t^2 * t = t^3 = 1
    assert hermitian_form(f, (f.one, f.zero), (f.zero, f.one)) == f.zero
    with pytest.raises(ValueError):
        hermitian_form(f, e1, (f.one,))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_form_reflexivity_exhaustive_q2(m):
    import itertools

    f = gf_build(2)
    vectors = list(itertools.product(f.elements(), repeat=m))
    for x in vectors:
        for y in vectors:
            assert hermitian_form(f, y, x) == f.conj(hermitian_form(f, x, y))


@pytest.mark.parametrize("q", [2, 3])
def test_born_value_lands_in_fixed_field(q):
    import itertools

    f = gf_build(q)
    vectors = list(itertools.product(f.elements(), repeat=2))
    pairs = 0
    for x in vectors:
        for y in vectors:
            pairs += 1
            assert f.is_fixed(born_value(f, x, y))
    assert pairs == (q * q) ** 4
    if q == 2:
        assert pairs == 256


def test_born_value_examples():
    f = gf_build(2)
    # form value t: born value is conj(t)*t = t^3 = 1
    x, y = (f.one, f.zero), (f.t, f.zero)
    assert hermitian_form(f, x, y) == f.t
    assert born_value(f, x, y) == f.one
    zero_pair = ((f.one, f.zero), (f.zero, f.one))
    assert born_value(f, *zero_pair) == f.zero


@pytest.mark.parametrize("q", [2, 3])
def test_monomial_unitary_scalars_are_q_plus_first_roots(q):
    f = gf_build(q)
    scan = monomial_unitary_entries(q, 2)
    assert scan.scalar_group_order == q + 1
    want = {s for s in f.units() if f.pow(s, q + 1) == f.one}
    assert set(scan.allowed_scalars) == want
    assert scan.unitary_count == (q + 1) ** 2 * 2  # wreath product order at m=2


def test_monomial_unitary_identity_always_passes():
    scan = monomial_unitary_entries(2, 1)
    assert scan.unitary_count == 3  # diagonal cube roots in dimension 1
    assert (1, 0) in scan.allowed_scalars


def test_monomial_unitary_size_is_limited_by_the_budget_alone():
    with pytest.raises(ValueError):
        monomial_unitary_entries(2, 0)
    # 5! * 3^5 = 29,160 unitaries out of 5! * 3^5 candidates: over F_4 every
    # unit is a cube root of unity
    assert monomial_unitary_entries(2, 5).unitary_count == 29_160


@pytest.mark.parametrize("q", [2, 3, 5])
def test_dictionary_alignment(q):
    table = dictionary_table(q)
    assert table.aligned
    assert table.r == q - 1
    assert table.modal_scalar_order == q + 1
    assert table.absolute_scalar_order == q + 1
    assert table.fixed_sizes == (q, q)


def test_dictionary_rows_q2():
    table = dictionary_table(2)
    by_theory = {row.theory: row for row in table.rows}
    assert set(by_theory) == {"Actual", "Modal", "General", "Absolute"}
    assert by_theory["Modal"].field == "F_4 = F_2[t]/(t^2+t+1)"
    assert by_theory["Modal"].involution == "v -> v^2"
    assert by_theory["Modal"].fixed_field == "F_2"
    assert by_theory["Absolute"].involution == "v -> v^2"
    assert by_theory["Absolute"].fixed_field == "F_1^1"
    assert "mu_3" in by_theory["Absolute"].unitary_scalars


def test_dictionary_rows_q3():
    table = dictionary_table(3)
    by_theory = {row.theory: row for row in table.rows}
    assert by_theory["Modal"].field == "F_9 = F_3[t]/(t^2+1)"
    assert by_theory["Modal"].involution == "v -> v^3"
    assert by_theory["Absolute"].field.startswith("F_1^8")
    assert by_theory["Absolute"].involution == "v -> v^3"
    assert by_theory["Absolute"].fixed_field == "F_1^2"


def test_dictionary_serializations():
    table = dictionary_table(2)
    data = table.to_json()
    assert json.dumps(data)  # JSON-serializable
    assert data["alignment"]["aligned"] is True
    assert data["q"] == 2 and data["r"] == 1
    assert len(data["rows"]) == 4

    md = table.to_markdown()
    assert md.count("\n") == 5  # header, separator, four rows
    assert md.splitlines()[0].startswith("| theory |")

    rows = table.csv_rows()
    assert rows[0][0] == "theory"
    assert len(rows) == 5


# Coefficient arithmetic, independent of the field's log tables: the oracle
# for the table operations and for the log-domain unitarity scan.


def _poly_mul(f, x, y):
    b, c = f.modulus
    t2 = x[1] * y[1]
    return ((x[0] * y[0] - c * t2) % f.p, (x[0] * y[1] + x[1] * y[0] - b * t2) % f.p)


def _poly_pow(f, x, k):
    out = (1, 0)
    for _ in range(k):
        out = _poly_mul(f, out, x)
    return out


def _poly_order(f, x):
    k, acc = 1, x
    while acc != (1, 0):
        acc, k = _poly_mul(f, acc, x), k + 1
    return k


PRIMES = [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("q", PRIMES)
def test_table_arithmetic_matches_polynomials(q):
    f = gf_build(q)
    elems = f.elements()
    for x in elems:
        for y in elems:
            assert f.mul(x, y) == _poly_mul(f, x, y)
        assert f.conj(x) == _poly_pow(f, x, q)
        for k in range(q + 3):
            assert f.pow(x, k) == _poly_pow(f, x, k)
        if x != f.zero:
            inv = next(y for y in elems if _poly_mul(f, x, y) == (1, 0))
            assert f.inverse(x) == inv
            assert f.pow(x, -2) == _poly_mul(f, inv, inv)
    assert f.is_fixed(f.zero)
    assert [x for x in elems if f.is_fixed(x)] == [x for x in elems if _poly_pow(f, x, q) == x]
    with pytest.raises(ZeroDivisionError):
        f.inverse(f.zero)
    with pytest.raises(ZeroDivisionError):
        f.pow(f.zero, -1)


@pytest.mark.parametrize("q", PRIMES)
def test_log_tables(q):
    f = gf_build(q)
    n = q * q - 1
    g = f.exp[1]
    assert _poly_order(f, g) == n
    # g is the first unit of full order, in units() order
    assert g == next(x for x in f.units() if _poly_order(f, x) == n)
    assert len(f.exp) == n and sorted(f.exp) == sorted(f.units())
    assert all(f.log[x] == k for k, x in enumerate(f.exp))
    for k in range(n):
        total = f.add(f.one, f.exp[k])
        if f.zech[k] is None:
            assert total == f.zero
        else:
            assert f.exp[f.zech[k]] == total
    # 1 + g^k = 0 exactly once: g^k = -1
    assert sum(z is None for z in f.zech) == 1


def _poly_dense_scan(q, m):
    """Dense scan in coefficient arithmetic, every candidate over F_{q^2}."""
    f = gf_build(q)
    units = [x for x in f.elements() if x != (0, 0)]
    count, seen = 0, set()
    for perm in itertools.permutations(range(m)):
        for scalars in itertools.product(units, repeat=m):
            a = [[(0, 0)] * m for _ in range(m)]
            for j in range(m):
                a[perm[j]][j] = scalars[j]
            ok = True
            for i in range(m):
                for j in range(m):
                    total = (0, 0)
                    for k in range(m):
                        term = _poly_mul(f, _poly_pow(f, a[k][i], q), a[k][j])
                        total = f.add(total, term)
                    ok = ok and total == ((1, 0) if i == j else (0, 0))
            if ok:
                count += 1
                seen.update(scalars)
    return count, tuple(sorted(seen))


@pytest.mark.parametrize(
    "q, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]
)
def test_log_scan_matches_coefficient_scan(q, m):
    scan = monomial_unitary_entries(q, m)
    count, scalars = _poly_dense_scan(q, m)
    assert (scan.q, scan.m) == (q, m)
    assert scan.unitary_count == count == math.factorial(m) * (q + 1) ** m
    assert scan.allowed_scalars == scalars


def test_scan_budget_is_checked_first():
    # 2! * 24^2 = 1152 candidates at q = 5
    assert monomial_unitary_entries(5, 2, budget=1152).unitary_count == 72
    with pytest.raises(BudgetExceededError):
        monomial_unitary_entries(5, 2, budget=1151)
    # 4! * 168^4 = 1.9e10 candidates: refused before any field is built
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        monomial_unitary_entries(13, 4)
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        monomial_unitary_entries(4, 2, budget=1)  # q is checked before the budget


def test_dictionary_budget():
    with pytest.raises(BudgetExceededError):
        dictionary_table(5, budget=1151)
    assert dictionary_table(5, budget=1152).aligned


@pytest.mark.parametrize(
    "q, m", [(q, 2) for q in PRIMES] + [(2, 3), (3, 3), (2, 4)]
)
def test_column_search_matches_dense_scan(q, m):
    assert monomial_unitary_entries(q, m) == dense_monomial_scan(q, m)


@pytest.mark.parametrize(
    "q, m, budget",
    [(5, 4, 24 * 24**4), (13, 3, 6 * 168**3)],  # m! * (q^2 - 1)^m candidates
)
def test_column_search_beyond_the_dense_scan(q, m, budget):
    scan = monomial_unitary_entries(q, m, budget=budget)
    assert scan.unitary_count == math.factorial(m) * (q + 1) ** m
    f = gf_build(q)
    want = {f.exp[k] for k in range(0, q * q - 1, q - 1)}  # the g^k, (q - 1) | k
    assert set(scan.allowed_scalars) == want
    with pytest.raises(BudgetExceededError):
        monomial_unitary_entries(q, m, budget=budget - 1)
