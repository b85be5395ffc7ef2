"""Exception hierarchy shared across the toolkit, plus the one check of settings.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError (and LinAlgError) -> 3.
"""

import math
import numbers
import sys


class SubclustError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SubclustError):
    """Invalid configuration: bad parameter values, unknown config keys."""


class DataError(SubclustError):
    """Malformed or inconsistent data: bad files, dimension mismatches."""


class NumericalError(SubclustError):
    """A numerical routine failed (eigendecomposition, SVD, linear solve)."""


_EXPECTED = {bool: "a boolean", int: "an integer", float: "a finite number"}


def require(name: str, value, kind: type, *, at_least=None, above=None) -> None:
    """Raise ConfigError unless value is of kind (bool, int or float) and in range.

    A bool is no number (JSON true is not 1), an int is also a float, and a
    float must be finite (json.load parses NaN and Infinity).
    """
    if kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif isinstance(value, numbers.Integral):  # math.isfinite(10**400) raises OverflowError
        ok = kind is int or abs(value) <= sys.float_info.max
    else:
        ok = kind is float and isinstance(value, numbers.Real) and math.isfinite(value)
    if not ok:
        raise ConfigError(f"{name} has the wrong type: expected {_EXPECTED[kind]}, got {value!r}")
    if at_least is not None and value < at_least:
        raise ConfigError(f"{name} must be >= {at_least}, got {value!r}")
    if above is not None and value <= above:
        raise ConfigError(f"{name} must be > {above}, got {value!r}")
