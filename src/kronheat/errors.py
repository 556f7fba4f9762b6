"""Exception types shared across the package, and its two argument checks."""

import operator

import numpy as np


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


def check_array(value, name, shape, dtype=None):
    """``value`` as an ndarray of ``dtype``, ``value`` itself if it is one
    (no copy, flags as they are).  UsageError unless it is an array of
    numbers with no NaN or infinity, DimensionMismatch unless its shape
    is ``shape``, where a None matches any length."""
    try:
        array = np.asarray(value, dtype=dtype)
        finite = np.isfinite(array).all()
    except (TypeError, ValueError):
        raise UsageError(f"{name} is not an array of numbers") from None
    if array.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, array.shape)):
        raise DimensionMismatch(
            f"{name} has shape {array.shape}, expected {shape}")
    if not finite:
        raise UsageError(f"{name} holds a non-finite entry")
    return array
