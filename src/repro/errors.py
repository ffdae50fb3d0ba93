"""Exception hierarchy shared across the ZCover reproduction.

Every package raises subclasses of :class:`ReproError` so callers can
distinguish library failures from programming errors.  The hierarchy mirrors
the subsystem layout: protocol codec errors, radio errors, simulator errors
and fuzzer errors each get their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class FrameError(ReproError):
    """A Z-Wave frame could not be encoded or decoded."""


class ChecksumError(FrameError):
    """A received frame failed its CS-8 / CRC-16 integrity check."""


class FrameTooLargeError(FrameError):
    """A frame would exceed the 64-byte Z-Wave MAC maximum."""


class SpecError(ReproError):
    """The command-class registry was queried inconsistently."""


class UnknownCommandClassError(SpecError):
    """A command-class identifier is not present in the registry."""


class UnknownCommandError(SpecError):
    """A command identifier is not defined for its command class."""


class CryptoError(ReproError):
    """A security-layer (S0/S2) operation failed."""


class AuthenticationError(CryptoError):
    """A MAC tag or key confirmation failed verification."""


class NonceError(CryptoError):
    """A nonce was missing, stale, or reused."""


class RadioError(ReproError):
    """The simulated RF layer rejected an operation."""


class TransceiverError(RadioError):
    """The virtual dongle was misconfigured (frequency, rate, region)."""


class SimulatorError(ReproError):
    """A virtual device rejected an operation."""


class NodeMemoryError(SimulatorError):
    """The controller NVM / node table rejected an operation."""


class FuzzerError(ReproError):
    """The fuzzing engine was driven into an invalid state."""


class CampaignError(FuzzerError):
    """A fuzzing campaign configuration is invalid."""


class ObsError(ReproError):
    """The observability layer (metrics, tracing) was misused."""


class SpanValueError(ObsError):
    """A span aggregate was fed a non-integer simulated-time value.

    Span sim-times are exact integer microsecond counts; silently
    coercing a float here would hide a caller that skipped its explicit
    rounding, and two workers coercing differently would break the
    byte-identity of merged metrics documents.  Carries the offending
    ``name`` and ``value`` structurally for callers that want them.
    """

    def __init__(self, name: str, value: object):
        self.name = name
        self.value = value
        super().__init__(
            f"span {name!r}: sim_time_us must be an integer microsecond "
            f"count, got {type(value).__name__} {value!r}"
        )
