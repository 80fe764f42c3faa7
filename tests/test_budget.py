"""Enumeration budget plumbing."""

import math

import pytest

from f1q.budget import BudgetExceededError, _check_wreath, check_budget


def test_check_passes_under_budget():
    check_budget(10, 100, what="test scan")
    check_budget(100, 100, what="test scan")


def test_check_raises_over_budget():
    with pytest.raises(BudgetExceededError):
        check_budget(101, 100, what="test scan")


def _refusal(check, *args) -> str:
    with pytest.raises(BudgetExceededError) as exc:
        check(*args, what="test scan")
    return str(exc.value)


def test_size_too_long_to_print_is_refused_by_its_magnitude():
    assert _refusal(check_budget, 10**5000, 100) == (
        "test scan needs about 10^5000 candidates, budget is 100"
    )


def test_wreath_check_words_its_refusal_as_check_budget_does():
    # exact up to Python's 4300-digit str limit, by magnitude beyond it; the
    # first m whose m! * s^m has more than 4300 digits is 1559, 1424 and
    # 1354 for s = 1, 2 and 3 (the last has 4301 digits)
    for s, first_unprintable in ((1, 1559), (2, 1424), (3, 1354)):
        for m in range(first_unprintable - 2, first_unprintable + 2):
            size = math.factorial(m) * s**m
            assert _refusal(_check_wreath, m, s, 100) == _refusal(check_budget, size, 100)
    assert _refusal(_check_wreath, 5, 2, 100) == (
        "test scan needs 3840 candidates, budget is 100"
    )
    # m = 10^7 would take seconds to reach m!; its logarithm takes none
    assert _refusal(_check_wreath, 10**7, 1, None) == (
        "test scan needs about 10^65657059 candidates, budget is 10000000"
    )
    _check_wreath(2000, 1, 10**6000, what="test scan")  # 2000! < 10^5736


def test_wreath_beyond_float_range_is_refused_by_its_digit_count():
    # past about 1.8 * 10^308 m no longer converts to a float; m! then has
    # about m * log10(m) digits, 10^400 * 400 ~ 10^403 at m = 10^400
    for s in (1, 3):
        assert _refusal(_check_wreath, 10**400, s, None) == (
            "test scan needs about 10^(10^403) candidates, budget is 10000000"
        )
