"""Exception types, the default budget and its gate, and the numpy import
shared across the package.

ValidationError signals bad caller input (CLI exit code 2); an
InternalInvariantError means a structural fact the decision procedure
relies on failed to hold, which is a bug or a broken assumption, never
a user mistake (CLI exit code 3).

lazy_numpy() is how every module gets numpy: the answer for one order
is closed-form arithmetic, so a run that never touches an array never
pays for loading numpy.  It returns the one module object in
sys.modules["numpy"], so every caller and a later plain ``import numpy``
share it.  When numpy is not loaded yet, that object is a stdlib
importlib.util.LazyLoader module, which runs numpy's own import on its
first attribute access and is a plain module from then on, so a module
keeps it in a global np: a function-local ``import numpy`` would cost
each call several times a global lookup.  LazyLoader
is not thread-safe before Python 3.12; ramcirc is single-threaded.  A
missing numpy still fails at import time, with ModuleNotFoundError.
"""

import importlib.util
import sys

## the largest table, sieve or loop any entry point runs by default
DEFAULT_BUDGET = 100_000_000


class ValidationError(ValueError):
    """Raised when an argument violates a documented precondition."""


class InternalInvariantError(RuntimeError):
    """Raised when a result contradicts a proved structural invariant."""


class BudgetExceededError(RuntimeError):
    """Raised when a table, a sieve or a loop would exceed its budget."""

    def __init__(self, required: int, budget: int, unit: str = "items"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"needs {required} {unit}, budget is {budget}"
        )


def check_budget(required: int, unit: str, budget: int = DEFAULT_BUDGET) -> None:
    """Raise BudgetExceededError when required exceeds budget."""
    if required > budget:
        raise BudgetExceededError(required, budget, unit)


def lazy_numpy():
    """numpy: the module already loaded, or one that loads on its first
    attribute access."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module
