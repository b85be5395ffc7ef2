"""Exception hierarchy shared across the toolkit, plus the two checks of settings.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError -> 3. `require` checks a setting's type and range, bounds that
depend on the data included; `require_one_of` checks a name against the names
it may take. Both raise ConfigError. `lapack` runs a numpy.linalg routine and
turns its LinAlgError into a NumericalError naming the stage.
"""

import math
import numbers
import sys

import numpy as np


class SubclustError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SubclustError):
    """Invalid configuration: bad parameter values, unknown config keys."""


class DataError(SubclustError):
    """Malformed or inconsistent data: bad files, dimension mismatches."""


class NumericalError(SubclustError):
    """A numerical routine failed (eigendecomposition, SVD, linear solve)."""


_EXPECTED = {bool: "a boolean", str: "a string", int: "an integer", float: "a finite number"}


def require(name: str, value, kind: type, *, at_least=None, above=None, at_most=None) -> None:
    """Raise ConfigError unless value is of kind (bool, str, int or float) and in range.

    A bool is no number (JSON true is not 1), an int is also a float, and a
    float must be finite (json.load parses NaN and Infinity). An upper bound
    at_most, which is set by the data, is given together with at_least.
    """
    if kind in (bool, str) or isinstance(value, bool):
        ok = kind in (bool, str) and isinstance(value, kind)
    elif isinstance(value, numbers.Integral):  # math.isfinite(10**400) raises OverflowError
        ok = kind is int or abs(value) <= sys.float_info.max
    else:
        ok = kind is float and isinstance(value, numbers.Real) and math.isfinite(value)
    if not ok:
        raise ConfigError(f"{name} has the wrong type: expected {_EXPECTED[kind]}, got {value!r}")
    if at_most is not None and not at_least <= value <= at_most:
        raise ConfigError(f"{name} must be in {at_least}..{at_most}, got {value!r}")
    if at_least is not None and value < at_least:
        raise ConfigError(f"{name} must be >= {at_least}, got {value!r}")
    if above is not None and value <= above:
        raise ConfigError(f"{name} must be > {above}, got {value!r}")


def require_one_of(name: str, value, choices):
    """Return value if it is a str in choices (a tuple or a dict), else raise ConfigError."""
    if not isinstance(value, str) or value not in choices:  # a list is unhashable as a dict key
        raise ConfigError(f"unknown {name} {value!r}, expected one of {tuple(choices)}")
    return value


def lapack(what: str, routine, *args, **kwargs):
    """Call routine; raise its LinAlgError as NumericalError("<what> failed: <reason>")."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} failed: {exc}") from exc
