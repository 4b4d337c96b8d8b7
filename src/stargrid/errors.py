"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when a caller supplies an invalid vertex, index, or parameter."""


class BudgetError(RuntimeError):
    """Raised when an exhaustive search or a distance table would exceed its
    budget."""
