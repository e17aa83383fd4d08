"""Exception types shared across the package.

ValidationError signals bad caller input (CLI exit code 2); an
InternalInvariantError means a structural fact the decision procedure
relies on failed to hold, which is a bug or a broken assumption, never
a user mistake (CLI exit code 3).
"""

## the largest enumeration or sieve any entry point runs by default
DEFAULT_BUDGET = 100_000_000


class ValidationError(ValueError):
    """Raised when an argument violates a documented precondition."""


class InternalInvariantError(RuntimeError):
    """Raised when a result contradicts a proved structural invariant."""


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration or a sieve would exceed its budget."""

    def __init__(self, required: int, budget: int, unit: str = "subsets"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} {unit}, budget is {budget}"
        )
