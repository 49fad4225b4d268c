"""Exception types shared across the package, and its one integer rule."""

import numbers


class DomainError(ValueError):
    """Input violates a mathematical precondition (cone membership, index
    ranges, Hermitian symmetry, positive definiteness)."""


def require_integer(name: str, value) -> None:
    """Reject a size or index that is not an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")


class ConeViolationError(DomainError):
    """A spectrum or field left the Garding cone where strict membership is
    required."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class SamplingBudgetError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


class LinearSolveError(RuntimeError):
    """Krylov solve of a Newton system did not reach the requested tolerance."""


class SolveFailure(RuntimeError):
    """A Newton stage failed; ``solve`` turns it into a failed SolveReport."""


class ConfigError(ValueError):
    """Run configuration is malformed (unknown key, bad type, bad value)."""
