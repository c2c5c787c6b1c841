"""Exception types shared across the package."""

from __future__ import annotations


class WreathcountError(Exception):
    """Base class for all package errors."""


class ParseError(WreathcountError):
    """Malformed cycle notation or group spec. Carries a 1-based column."""

    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


class DegreeMismatch(WreathcountError):
    """Permutations of different degrees were combined."""


class BudgetExceeded(WreathcountError):
    """A configured size budget would be exceeded; the computation was refused."""


class UnknownFamily(WreathcountError):
    """Group family name not recognized, or parameters invalid."""


class DivisibilityViolation(WreathcountError):
    """Burnside sum not divisible by the group order. Signals a bug; must never fire."""


class InvariantViolation(WreathcountError):
    """A mathematical invariant failed on a computed result. Signals a bug; must never fire."""


class NotSemiprimitive(WreathcountError):
    """Group fails the preconditions of the semiprimitive decomposition report."""


class Infeasible(BudgetExceeded):
    """No exact counting method fits the budgets: a BudgetExceeded with a bracket.

    Carries the tightest bracket available without enumeration:
    ``lower`` <= k(G) < ``upper``.
    """

    def __init__(self, lower, upper, message: str | None = None):
        super().__init__(message or f"count infeasible within budgets; bracket [{lower}, {upper})")
        self.lower = lower
        self.upper = upper
