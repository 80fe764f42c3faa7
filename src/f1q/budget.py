"""Search-space budgets for the exhaustive enumerations.

The cap is ``DEFAULT_BUDGET`` unless a call passes its own ``budget``;
exceeding it raises ``BudgetExceededError``, which the CLI maps to its own
exit code so a too large request is distinguishable from a crash.
"""

from __future__ import annotations

import math

__all__ = ["BudgetExceededError", "DEFAULT_BUDGET", "default_budget", "check_budget"]

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its allowed search-space size."""


def default_budget() -> int:
    return DEFAULT_BUDGET


# Python's default cap on the digits that ``str`` converts an int to.
_SHOWN_DIGITS = 4300


def check_budget(size: int, budget: int | None, *, what: str) -> None:
    limit = default_budget() if budget is None else budget
    if size > limit:
        try:
            shown = str(size)
        except ValueError:  # more digits than str converts
            shown = f"about 10^{math.log10(size):.0f}"
        raise BudgetExceededError(f"{what} needs {shown} candidates, budget is {limit}")


def _check_wreath(m: int, s: int, budget: int | None, *, what: str) -> None:
    """``check_budget`` on the wreath product size m! * s^m, s >= 1.  A size
    too long for ``str`` is refused by its logarithm, before m! is computed,
    and one whose logarithm overflows a float by its logarithm's logarithm."""
    limit = default_budget() if budget is None else budget
    try:
        digits = (math.lgamma(m + 1) + m * math.log(s)) / math.log(10)
        shown = f"about 10^{digits:.0f}"
    except OverflowError:  # m beyond float range; m! has about m log10(m) digits
        digits = math.inf
        shown = f"about 10^(10^{math.log10(m) + math.log10(math.log10(m)):.0f})"
    if digits > max(_SHOWN_DIGITS + 1, limit.bit_length()):
        raise BudgetExceededError(f"{what} needs {shown} candidates, budget is {limit}")
    check_budget(math.factorial(m) * s**m, budget, what=what)
