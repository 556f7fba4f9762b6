"""Exception types shared across the package."""


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
