"""Quadratic extension fields, Hermitian forms, and the comparison table."""

import itertools
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f1q.budget import BudgetExceededError
from f1q.field import (
    classify_involution,
    elements,
    one,
    unit,
    unitary_exponents,
    units,
    zero,
)
from f1q.frames import StateVector, standard_form
from f1q.operators import MonomialMatrix, is_unitary
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


def _pairs(q):
    """Every c0 + c1*t of F_{q^2} as a coefficient pair, zero first."""
    return [(c0, c1) for c1 in range(q) for c0 in range(q)]


def _elements(f):
    """Every element, converted from its pair, in ``_pairs`` order."""
    return [f.element(c) for c in _pairs(f.q)]


def _add(f, x, y):
    """Coefficient addition, independent of the Zech table."""
    return ((x[0] + y[0]) % f.q, (x[1] + y[1]) % f.q)


@pytest.mark.parametrize("q", [2, 3])
def test_field_axioms_exhaustive(q):
    f = gf_build(q)
    n = q * q - 1
    elems = _elements(f)
    assert len(elems) == q * q
    assert set(elems) == set(elements(n))  # the conversion is a bijection
    z, e = zero(n), one(n)
    for x in elems:
        assert f.add(x, z) == x
        assert x * e == x
        assert sum(f.add(x, y) == z for y in elems) == 1  # one additive inverse
        if x != z:
            assert x * x.inverse() == e
    for x in elems:
        for y in elems:
            assert f.add(x, y) == f.add(y, x)
            assert x * y == y * x
            for w in elems:
                assert f.add(f.add(x, y), w) == f.add(x, f.add(y, w))
                assert (x * y) * w == x * (y * w)
                assert x * f.add(y, w) == f.add(x * y, x * w)


@st.composite
def field_and_elements(draw, count=3):
    q = draw(st.sampled_from([5, 7, 11, 13]))
    f = gf_build(q)
    xs = tuple(
        f.element((draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))))
        for _ in range(count)
    )
    return f, xs


@given(field_and_elements())
@settings(max_examples=150)
def test_field_axioms_randomized(fx):
    f, (x, y, z) = fx
    assert f.add(x, y) == f.add(y, x)
    assert x * y == y * x
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    assert (x * y) * z == x * (y * z)
    assert x * f.add(y, z) == f.add(x * y, x * z)
    if x.is_unit:
        assert x * x.inverse() == one(f.level)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_multiplicative_group_is_cyclic(q):
    f = gf_build(q)
    n = q * q - 1
    orders = set()
    for c in _pairs(q)[1:]:
        x = f.element(c)
        k = 1
        acc = x
        while acc != one(n):
            acc = acc * x
            k += 1
        assert k == _poly_order(f, c)
        orders.add(k)
        assert n % k == 0
    assert n in orders  # a generator exists


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_conjugation_is_involutory_with_fixed_field_q(q):
    f = gf_build(q)
    sigma = f.sigma
    elems = _elements(f)
    fixed = [x for x in elems if sigma(x) == x]
    assert len(fixed) == q
    assert [f.pair(x) for x in fixed] == [(c, 0) for c in range(q)]  # the prime subfield
    for x in elems:
        assert sigma(sigma(x)) == x
    for x in elems:
        for y in elems:
            assert sigma(x * y) == sigma(x) * sigma(y)
            assert sigma(f.add(x, y)) == f.add(sigma(x), sigma(y))


def test_conjugation_on_f4_swaps_the_two_generators():
    f = gf_build(2)
    t = f.element((0, 1))
    assert f.sigma(t) == t * t
    assert f.sigma(t) != t


def test_element_formatting():
    f = gf_build(3)
    assert f.format_element(zero(8)) == "0"
    assert f.format_element(one(8)) == "1"
    assert f.format_element(f.element((0, 1))) == "t"
    assert f.format_element(f.element((2, 1))) == "t+2"
    assert f.format_element(f.element((0, 2))) == "2t"


def test_hermitian_form_basics():
    f = gf_build(2)
    z, e, t = zero(3), one(3), f.element((0, 1))
    e1 = (e, z)
    assert hermitian_form(f, e1, e1) == e
    x = (t, z)
    assert hermitian_form(f, x, x) == e  # t^2 * t = t^3 = 1
    assert hermitian_form(f, (e, z), (z, e)) == z
    with pytest.raises(ValueError):
        hermitian_form(f, e1, (e,))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_form_reflexivity_exhaustive_q2(m):
    f = gf_build(2)
    vectors = list(itertools.product(_elements(f), repeat=m))
    for x in vectors:
        for y in vectors:
            assert hermitian_form(f, y, x) == f.sigma(hermitian_form(f, x, y))


@pytest.mark.parametrize("q", [2, 3])
def test_born_value_lands_in_fixed_field(q):
    f = gf_build(q)
    vectors = list(itertools.product(_elements(f), repeat=2))
    pairs = 0
    for x in vectors:
        for y in vectors:
            pairs += 1
            assert f.pair(born_value(f, x, y))[1] == 0  # in the prime subfield F_q
    assert pairs == (q * q) ** 4
    if q == 2:
        assert pairs == 256


def test_born_value_examples():
    f = gf_build(2)
    z, e, t = zero(3), one(3), f.element((0, 1))
    # form value t: born value is conj(t)*t = t^3 = 1
    x, y = (e, z), (t, z)
    assert hermitian_form(f, x, y) == t
    assert born_value(f, x, y) == e
    zero_pair = ((e, z), (z, e))
    assert born_value(f, *zero_pair) == z


@pytest.mark.parametrize("q", [2, 3])
def test_monomial_unitary_scalars_are_q_plus_first_roots(q):
    f = gf_build(q)
    scan = monomial_unitary_entries(q, 2)
    assert scan.scalar_group_order == q + 1
    want = {c for c in _pairs(q)[1:] if _poly_pow(f, c, q + 1) == (1, 0)}
    assert {f.pair(s) for s in scan.allowed_scalars} == want
    assert scan.unitary_count == (q + 1) ** 2 * 2  # wreath product order at m=2


def test_monomial_unitary_identity_always_passes():
    scan = monomial_unitary_entries(2, 1)
    assert scan.unitary_count == 3  # diagonal cube roots in dimension 1
    assert gf_build(2).element((1, 0)) in scan.allowed_scalars


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
    return ((x[0] * y[0] - c * t2) % f.q, (x[0] * y[1] + x[1] * y[0] - b * t2) % f.q)


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
    n = q * q - 1
    for c in _pairs(q):
        x = f.element(c)
        assert f.pair(x) == c
        for d in _pairs(q):
            y = f.element(d)
            assert f.pair(x * y) == _poly_mul(f, c, d)
            assert f.pair(f.add(x, y)) == _add(f, c, d)
        assert f.pair(f.sigma(x)) == _poly_pow(f, c, q)
        for k in range(0 if x.is_unit else 1, q + 3):
            assert f.pair(x**k) == _poly_pow(f, c, k)
        if x.is_unit:
            inv = next(d for d in _pairs(q) if _poly_mul(f, c, d) == (1, 0))
            assert f.pair(x.inverse()) == inv
            assert f.pair(x**-2) == _poly_mul(f, inv, inv)
    z = zero(n)
    assert f.sigma(z) == z
    assert [c for c in _pairs(q) if f.sigma(f.element(c)) == f.element(c)] == [
        c for c in _pairs(q) if _poly_pow(f, c, q) == c
    ]
    with pytest.raises(ZeroDivisionError):
        z.inverse()
    for k in (0, -1):  # 0^k is defined only for k >= 1
        with pytest.raises(ValueError):
            z**k


@pytest.mark.parametrize("q", PRIMES)
def test_log_tables(q):
    f = gf_build(q)
    n = q * q - 1
    g = f.exp[1]
    assert _poly_order(f, g) == n
    # g is the first unit of full order, in _pairs order
    assert g == next(c for c in _pairs(q)[1:] if _poly_order(f, c) == n)
    assert len(f.exp) == n and sorted(f.exp) == sorted(_pairs(q)[1:])
    assert all(f.log[c] == k for k, c in enumerate(f.exp))
    for k in range(n):
        # g^k is the element w^k, both ways
        assert f.element(f.exp[k]) == unit(k, n) and f.pair(unit(k, n)) == f.exp[k]
        total = _add(f, (1, 0), f.exp[k])
        if f.zech[k] is None:
            assert total == (0, 0)
        else:
            assert f.exp[f.zech[k]] == total
    # 1 + g^k = 0 exactly once: g^k = -1
    assert sum(z is None for z in f.zech) == 1
    assert f.element((0, 0)) == zero(n) and f.pair(zero(n)) == (0, 0)


def _poly_dense_scan(q, m):
    """Dense scan in coefficient arithmetic, every candidate over F_{q^2}."""
    f = gf_build(q)
    units = _pairs(q)[1:]
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
                        total = _add(f, total, term)
                    ok = ok and total == ((1, 0) if i == j else (0, 0))
            if ok:
                count += 1
                seen.update(scalars)
    return count, tuple(sorted(seen))


@pytest.mark.parametrize(
    "q, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]
)
def test_log_scan_matches_coefficient_scan(q, m):
    # the F_1 rule at level q^2 - 1 against dense A*A in coefficient pairs
    scan = monomial_unitary_entries(q, m)
    count, scalars = _poly_dense_scan(q, m)
    assert (scan.q, scan.m) == (q, m)
    assert scan.unitary_count == count == math.factorial(m) * (q + 1) ** m
    assert tuple(sorted(gf_build(q).pair(s) for s in scan.allowed_scalars)) == scalars


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
    # the F_1 rule at level q^2 - 1 against the dense log-and-Zech oracle
    assert monomial_unitary_entries(q, m) == dense_monomial_scan(q, m)


@pytest.mark.parametrize(
    "q, m, budget",
    [(5, 4, 24 * 24**4), (13, 3, 6 * 168**3)],  # m! * (q^2 - 1)^m candidates
)
def test_column_search_beyond_the_dense_scan(q, m, budget):
    # the F_1 rule past the oracle's reach, against the closed form
    scan = monomial_unitary_entries(q, m, budget=budget)
    assert scan.unitary_count == math.factorial(m) * (q + 1) ** m
    want = {unit(k, q * q - 1) for k in range(0, q * q - 1, q - 1)}  # the g^k, (q - 1) | k
    assert set(scan.allowed_scalars) == want
    with pytest.raises(BudgetExceededError):
        monomial_unitary_entries(q, m, budget=budget - 1)


@pytest.mark.parametrize("q, m, total", [(2, 2, 18), (3, 2, 128), (2, 3, 162)])
def test_monomial_gram_is_the_per_column_rule(q, m, total):
    """A*A of a monomial has no term off the diagonal and the single term
    s_j^q * s_j at (j, j), so the dense test is the F_1 ``is_unitary``."""
    f = gf_build(q)
    n, z, e = f.level, zero(f.level), one(f.level)
    seen = unitary = 0
    for perm in itertools.permutations(range(m)):
        for scalars in itertools.product(units(n), repeat=m):
            cols = [
                tuple(s if row == p else z for row in range(m))
                for p, s in zip(perm, scalars)
            ]
            dense_ok = True
            for i, j in itertools.product(range(m), repeat=2):
                entry = hermitian_form(f, cols[i], cols[j])
                assert entry == (scalars[j] ** q * scalars[j] if i == j else z)
                dense_ok = dense_ok and entry == (e if i == j else z)
            assert dense_ok == is_unitary(MonomialMatrix(n, perm, scalars), f.sigma)
            seen += 1
            unitary += dense_ok
    assert seen == total
    assert unitary == math.factorial(m) * (q + 1) ** m


@pytest.mark.parametrize("q", PRIMES)
def test_modal_scalars_are_the_f1_scalars_at_level_q2_minus_1(q):
    """F_{q^2} is {0} + mu_n, n = q^2 - 1, with x -> x^q as v -> v^q."""
    n = q * q - 1
    f = gf_build(q)
    sigma = classify_involution(n, q - 1)
    assert f.sigma == sigma
    scan = monomial_unitary_entries(q, 2)
    assert scan.allowed_scalars == tuple(unit(e, n) for e in unitary_exponents(sigma, n))
    if q > 3:
        return
    # at m = 2 the F_1 form equals the Hermitian form wherever it is defined
    vectors = [StateVector(v) for v in itertools.product(elements(n), repeat=2)]
    defined = 0
    for x in vectors:
        for y in vectors:
            form = standard_form(x, y, sigma)
            if form is not None:
                defined += 1
                assert form == hermitian_form(f, x.entries, y.entries)
    # undefined exactly when all four entries are units
    assert defined == (n + 1) ** 4 - n**4
