"""Exception types shared across the package.

Every error raised by the library derives from :class:`PPCAError` so callers
can catch one base class at session boundaries.
"""


class PPCAError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PPCAError, ValueError):
    """Operands have incompatible or invalid shapes."""


class MatrixValidationError(PPCAError, ValueError):
    """A matrix violates a structural invariant (non-finite entry, empty, ...)."""


class ConvergenceError(PPCAError, RuntimeError):
    """An eigensolver did not reach its tolerance."""

    def __init__(self, message, off_diagonal_norm=None):
        super().__init__(message)
        self.off_diagonal_norm = off_diagonal_norm


class EncodingRangeError(PPCAError, OverflowError):
    """A value does not fit the configured encoding range."""


class KeyMismatchError(PPCAError, ValueError):
    """A ciphertext was used with a key it was not produced under."""


class ShareError(PPCAError, ValueError):
    """Base class for secret-sharing contract violations."""


class ShareOwnershipError(ShareError):
    """Shares owned by different parties were combined locally."""


class ShareBindingError(ShareError):
    """Shares of different secrets were mixed in one reconstruction."""


class IncompleteSharesError(ShareError):
    """Reconstruction was attempted without one share per party."""


class TransportError(PPCAError):
    """Base class for message delivery failures."""


class FrameFormatError(TransportError, ValueError):
    """A wire frame is malformed (bad magic, version, truncation, length cap)."""


class TransportTimeout(TransportError, TimeoutError):
    """No message arrived within the receive timeout."""


class TransportClosed(TransportError):
    """The session channel was closed while a delivery was pending."""


class ProtocolAbort(PPCAError, RuntimeError):
    """A protocol session aborted; no partial results are released.

    ``phase`` names the protocol phase that failed, and ``reason`` says why.
    """

    def __init__(self, phase, reason, cause=None):
        super().__init__(f"protocol aborted in phase {phase}: {reason}")
        self.phase = phase
        self.reason = reason
        self.cause = cause


class ConfigError(PPCAError, ValueError):
    """A session or CLI configuration value is invalid."""


class DataError(PPCAError, ValueError):
    """Input data could not be parsed or fails a dataset invariant."""
