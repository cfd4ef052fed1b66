"""Exception types shared across the package."""


class DomainError(ValueError):
    """A precondition or domain restriction was violated (pole, drift condition, barrier order).

    The CLI maps this to exit code 3.
    """


class UsageError(ValueError):
    """Malformed request shape (unknown/missing parameter keys, bad grids).

    The CLI maps this to exit code 2.
    """


class NumericalError(RuntimeError):
    """A numeric guard tripped: no convergence, or a value significantly outside
    its documented range.

    The CLI maps this, and ``ArithmeticError`` (overflow), to exit code 4.
    """


class UnsupportedFunctional(ValueError):
    """The requested Monte Carlo functional is not exactly simulable for this model."""
