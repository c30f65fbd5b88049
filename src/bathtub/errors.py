"""Exception types shared across the package, the bounds check that
every model parameter goes through, and the check of every count."""

import math
import numbers


class BathtubError(Exception):
    """Base class for errors raised by this package."""


class DomainError(BathtubError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(BathtubError, ValueError):
    """User-supplied table data is malformed (NaN, bad ordering, bad shape)."""


class ContractError(BathtubError, TypeError):
    """An operation was called with an object kind it does not support."""


class UndefinedStatisticsError(BathtubError):
    """Statistics of the active-trip population are undefined (no active trips)."""


class TripNotCompleted(BathtubError):
    """The queried trip does not finish within the solved horizon."""

    def __init__(self, message: str, remaining_distance: float):
        super().__init__(message)
        self.remaining_distance = remaining_distance


class ConfigError(BathtubError, ValueError):
    """A run configuration failed to parse or validate."""


def finite_positive(**values):
    """Raise :class:`DomainError` naming each value that is not finite and
    positive.  The comparison ``0 < v < inf`` is false for NaN, so NaN fails
    too; a NaN or infinite parameter would otherwise stall a march whose
    step or clock it sets."""
    _reject([k for k, v in values.items() if not 0 < v < math.inf], "positive")


def finite_non_negative(**values):
    """As :func:`finite_positive`, but zero is allowed."""
    _reject([k for k, v in values.items() if not 0 <= v < math.inf],
            "non-negative")


def count_at_least_one(**values):
    """Raise :class:`DomainError` naming the first value that is not an
    integer of at least 1: a count of steps, samples or ranks."""
    for name, v in values.items():
        if not (isinstance(v, numbers.Integral) and v >= 1):
            raise DomainError(f"{name} must be at least 1, an integer, got {v!r}")


def _reject(bad, bound):
    if bad:
        raise DomainError(f"{', '.join(bad)} must be finite and {bound}")
