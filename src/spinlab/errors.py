"""Shared exception types."""

from __future__ import annotations

import math


class SpinLabError(Exception):
    """Base class for all package errors."""


class InvalidConfigurationError(SpinLabError):
    """A configuration does not match the model (length or spin range)."""


class InvalidModelError(SpinLabError):
    """A SpinSystem or model document violates a structural invariant."""


class BudgetExceededError(SpinLabError):
    """An enumeration would exceed the configured budget; ``needed_bits`` is
    log2 of what it would enumerate, the q^n states of n spins by default."""

    def __init__(self, n: int, q: int, budget_bits: float, needed_bits: float | None = None):
        self.n = n
        self.q = q
        self.budget_bits = budget_bits
        if needed_bits is None:
            needed_bits = n * math.log2(q)
        super().__init__(
            f"enumeration budget exceeded: n={n}, q={q} needs "
            f"{needed_bits:.1f} bits > cap {budget_bits:.4g}"
        )


class GuardViolation(SpinLabError):
    """A promise-problem precondition on Zhat fails.

    ``side`` is "below" (Zhat under the certified floor) or "above";
    ``suggested_answer`` is the trivially correct decision answer.
    """

    def __init__(self, side: str, suggested_answer: str, detail: str = ""):
        self.side = side
        self.suggested_answer = suggested_answer
        super().__init__(f"guard violated ({side}): {detail}")


class TargetUnreachableError(SpinLabError):
    """A bisection target lies outside the achievable bracket."""

    def __init__(self, message: str, achieved_range: tuple[float, float] | None = None):
        self.achieved_range = achieved_range
        super().__init__(message)


class InfeasibleParametersError(SpinLabError):
    """Requested construction parameters admit no valid instance."""
