"""Exception hierarchy shared across the package."""
from __future__ import annotations


class LyapeditError(Exception):
    """Base class for every error raised by this package."""


class InputError(LyapeditError, ValueError):
    """An argument value is invalid (non-finite, non-positive, out of range)."""


class DimensionMismatchError(InputError):
    """Matrix shapes are inconsistent; the message names the offending axis."""


class NonFiniteError(InputError):
    """An input contains NaN or infinity."""


class NumericalInstabilityError(LyapeditError):
    """Gram-form cancellation exceeded the guard; the state is untrustworthy.

    Rebuilding the state with explicit matrices (see the oracle helpers) is the
    recommended diagnostic path.  Also raised when the ``d_base`` probe's loss
    is not representable at the stream's key scale.
    """


class SingularSystemError(LyapeditError):
    """The normal-equation matrix stayed singular after maximum ridge escalation."""

    def __init__(self, message: str, condition_estimate: float = float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class GenerationError(LyapeditError):
    """Synthetic stream generation failed: the preserved keys' Gram is not
    finite, or not positive definite."""


class StreamExhausted(LyapeditError):
    """A batch index lies outside the stream's 1..total_batches."""


class OracleFailure(LyapeditError):
    """An iterative verifier diverged; indicates a bug, not a property violation."""


class ConfigError(LyapeditError):
    """A configuration document is invalid; the message names the field."""


class KvmxFormatError(LyapeditError):
    """A matrix file does not conform to the KVMX layout."""


class KvmxBadMagicError(KvmxFormatError):
    """Leading magic bytes are wrong."""


class KvmxTruncatedError(KvmxFormatError):
    """Header promises more payload than the file contains."""


class KvmxDimOverflowError(KvmxFormatError):
    """Header dimensions exceed what this implementation will materialize."""


class KvmxNonFiniteError(KvmxFormatError):
    """Payload contains a non-finite value; carries the element offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class RunAborted(LyapeditError):
    """A harness run stopped early; carries whatever was recorded so far."""

    def __init__(self, message: str, step: int, records: list):
        super().__init__(message)
        self.step = step
        self.records = records
