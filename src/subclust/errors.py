"""Exception hierarchy shared across the toolkit, plus the integer check of settings.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError (and LinAlgError) -> 3.
"""

import numbers


class SubclustError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SubclustError):
    """Invalid configuration: bad parameter values, unknown config keys."""


class DataError(SubclustError):
    """Malformed or inconsistent data: bad files, dimension mismatches."""


class NumericalError(SubclustError):
    """A numerical routine failed (eigendecomposition, SVD, linear solve)."""


def require_integer(name: str, value) -> None:
    """Raise ConfigError unless value is an integer (bool excluded)."""
    # a JSON 2.5 or true would pass the range checks and fail deep in a run
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} has the wrong type: expected an integer, got {value!r}")
