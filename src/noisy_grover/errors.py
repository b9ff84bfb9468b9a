"""Exception types raised on contract violations."""


class NoisyGroverError(ValueError):
    """Base class for all contract violations in this package."""


class NotHermitian(NoisyGroverError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""


class DimensionMismatch(NoisyGroverError):
    """Operands have incompatible shapes or indices out of range."""


class DegeneratePolar(NoisyGroverError):
    """Matrix is numerically singular; its nearest unitary is non-unique."""


class NotTracePreserving(NoisyGroverError):
    """Kraus operators fail the completeness relation."""


class NotNormalized(NoisyGroverError):
    """Vector expected to have unit norm does not."""


class NotReal(NoisyGroverError):
    """An input that must be real is complex."""
