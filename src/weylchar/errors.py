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
