"""Exceptions and the default budgets whose excess they report.

The budgets live here, not in the modules that enforce them, so the CLI can
build its parser without importing the compute modules.
"""

# Largest irrep (or tensor-product) dimension a branching decomposition may enumerate.
DIM_BUDGET = 10**6
# Largest character dimension `afalgebra.ergodic_sequence` evaluates along a tower.
ERGODIC_DIM_BUDGET = 10**9


class BudgetExceeded(RuntimeError):
    """An enumeration or truncation budget was exceeded.

    Raised instead of silently degrading; the CLI maps this to exit code 3.
    """


class InvariantError(ArithmeticError):
    """An internal invariant broke: a bug in weylchar, not in its input.

    Raised where an exact identity the code relies on fails (a Weyl product
    that does not divide, lost dimensions after branching or an LR expansion,
    a GT jump with no patterns); the CLI maps this to exit code 4.
    """
