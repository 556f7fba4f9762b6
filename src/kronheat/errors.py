"""Exception types shared across the package, and its one integer check."""

import operator


class KronheatError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(KronheatError):
    """Operands have inconsistent shapes."""


class DegenerateElement(KronheatError):
    """A mesh element has nonpositive area."""


class NotPositiveDefinite(KronheatError):
    """A matrix required to be SPD failed its Cholesky factorization."""


class ConvergenceFailure(KronheatError):
    """An iterative decomposition did not converge within its budget."""


class DefectivePencil(KronheatError):
    """Eigenvector residual of the temporal pencil exceeds tolerance."""


class ImaginaryResidueTooLarge(KronheatError):
    """The imaginary part discarded from a real solution exceeds tolerance."""


class ResidualTooLarge(KronheatError):
    """A solve's relative residual exceeds the bound of its variant."""


class SingularMatrix(KronheatError):
    """A pivot fell below the singularity threshold during factorization."""


class UsageError(KronheatError):
    """An operation was invoked with an unusable configuration."""


def check_integer(value, name, least):
    """``value`` as an int; UsageError unless it is an integer >= least.
    A bool is refused, though ``operator.index(True)`` is 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise UsageError(f"{name} must be >= {least}, got {count}")
    return count
