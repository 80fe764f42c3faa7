"""Enumeration budget plumbing."""

import pytest

from f1q.budget import BudgetExceededError, check_budget


def test_check_passes_under_budget():
    check_budget(10, 100, what="test scan")
    check_budget(100, 100, what="test scan")


def test_check_raises_over_budget():
    with pytest.raises(BudgetExceededError):
        check_budget(101, 100, what="test scan")

