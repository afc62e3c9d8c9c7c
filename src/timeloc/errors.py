"""Exception types shared across the package."""


class TimelocError(Exception):
    """Base class for every error raised by this library."""


class TraceParseError(TimelocError):
    """A trace file line could not be decoded."""


class TraceValidationError(TimelocError):
    """A record violates a structural invariant (bad BSSID, RSSI range, ...)."""


class ProfileFormatError(TimelocError):
    """A stored profile is not valid JSON or lacks a key or value it needs."""


class OrderingError(TimelocError):
    """Input that must be time-ordered is not."""


class ConfigurationError(TimelocError):
    """A scenario or route description is inconsistent."""


class NoNightData(TimelocError):
    """No trace contains any scan inside the nightly voting window."""


class UnknownBssid(TimelocError):
    """Queried BSSID is absent from both the window and the fallback map."""


class ColdStart(TimelocError):
    """The profile covers fewer than a full week; predictions are refused."""


class NoHistory(TimelocError):
    """A nearest-neighbor query was issued against an empty history."""


class InsufficientHistory(TimelocError):
    """The evaluation dataset does not span more than one week."""
