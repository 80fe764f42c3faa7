"""Search-space budgets for the exhaustive enumerations.

The cap is ``DEFAULT_BUDGET`` unless a call passes its own ``budget``;
exceeding it raises ``BudgetExceededError``, which the CLI maps to its own
exit code so a too large request is distinguishable from a crash.
"""

from __future__ import annotations

__all__ = ["BudgetExceededError", "DEFAULT_BUDGET", "default_budget", "check_budget"]

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its allowed search-space size."""


def default_budget() -> int:
    return DEFAULT_BUDGET


def check_budget(size: int, budget: int | None, *, what: str) -> None:
    limit = default_budget() if budget is None else budget
    if size > limit:
        raise BudgetExceededError(f"{what} needs {size} candidates, budget is {limit}")
