"""Exception types shared across the library."""


class SkewflowError(Exception):
    """Base class for all library errors."""


class TimeOrderViolation(SkewflowError):
    """Raised when a time pair violates t >= s >= 0."""


class NonFinite(SkewflowError):
    """A cocycle or integrand value overflowed or is NaN.

    Signals that the caller must shrink its horizon; it is never a
    stability verdict by itself.
    """


class BudgetExceeded(SkewflowError):
    """An integration routine hit its evaluation cap before reaching tolerance."""


class DegenerateProbe(SkewflowError):
    """A probe produced a zero denominator (trajectory norm vanished)."""


class InvalidGauge(SkewflowError):
    """A gauge descriptor violates the gauge-class requirements."""


class InvalidParams(SkewflowError):
    """Gallery or custom-system parameters violate their constraints."""


class MissingGrowthEnvelope(SkewflowError):
    """A criterion requiring a verified growth envelope was run without one."""


class ConfigError(SkewflowError):
    """Malformed CLI or config-file input."""
