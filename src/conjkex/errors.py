"""Exception hierarchy shared by all conjkex modules."""


class ConjKexError(Exception):
    """Base class for every error raised by this package."""


class ParamMismatchError(ConjKexError):
    """Operands were built under different moduli or group parameters."""


class PlatformMismatchError(ParamMismatchError):
    """Protocol values from two different platforms were combined."""


class DepthMismatchError(ParamMismatchError):
    """Tree portraits of different depth were composed."""


class NoSolutionError(ConjKexError):
    """No solution exists: a discrete-log target outside the cyclic
    subgroup searched, or a value that no private conjugates the base to."""


class TooLargeError(ConjKexError):
    """Group is too big for the requested enumeration, or to print its exponents."""


class LevelOutOfRangeError(ConjKexError):
    """Level index is outside [0, depth)."""


class DepthTooLargeError(TooLargeError):
    """Tree depth exceeds the limit of this operation: an enumeration
    past the one limit, or the subgroup engine's depth."""


class NotAGroupError(ConjKexError):
    """Element set is not closed under the group operation."""


class TranscriptError(ConjKexError):
    """Handshake transcript is malformed or incomplete."""


class ParseError(ConjKexError, ValueError):
    """Canonical element string does not match its strict grammar."""
