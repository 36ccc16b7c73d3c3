"""Exception types shared across the package, and the two argument checks
that the library's constructors share."""

import math
from numbers import Integral


class DiffidError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DiffidError):
    """Invalid grid, parameter, or config-file input."""


class DataError(DiffidError):
    """Problem data violates a required structural condition."""


class DivisionHazardError(DiffidError):
    """The measurement field dropped below the division floor at an evaluated node."""


class NumericalBlowupError(DiffidError):
    """A time-stepping sweep produced non-finite values."""


class CertificateFailure(DiffidError):
    """A solvability certificate failed and the run was not forced."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


def check_positive(name: str, value) -> None:
    """Raise ConfigurationError naming name unless value is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name}={value} is not a finite positive number")


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError naming name unless value is an integer >= minimum."""
    if not isinstance(value, Integral) or value < minimum:
        raise ConfigurationError(f"{name}={value} is not an integer >= {minimum}")
