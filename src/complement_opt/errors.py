"""Exception types shared across the package, and the one rule each for
every count (``check_count``) and every real number (``check_real``)."""
import math
import sys


class ConfigError(ValueError):
    """A run names an unknown experiment, preset or objective, lacks a field
    its study reads, or has a count or a real number that breaks its rule."""


class DomainError(ValueError):
    """A physical parameter is outside its admissible domain."""


class RangeError(ValueError):
    """An index (collision count, probe index) is out of range."""


class NormalizationError(ValueError):
    """A state vector deviates from unit norm beyond tolerance."""


def check_count(value, name: str, error: type[ValueError], low=0, high=math.inf) -> None:
    """``error`` naming ``name`` unless ``value`` is an int (no bool) in [low, high]."""
    if type(value) is not int or not low <= value <= high:
        raise error(f"{name}={value!r} is no int in [{low}, {high}]")


def check_real(value, name: str, low: float = -math.inf) -> None:
    """:class:`ConfigError` naming ``name`` unless ``value`` is an int or a float
    (no bool); :class:`DomainError` unless it is >= low and a finite float.  The
    message names the bound only when there is one."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} takes real numbers, got {value!r}")
    if not (low <= value and abs(value) <= sys.float_info.max):
        bound = "" if low == -math.inf else f" and >= {low}"
        raise DomainError(f"{name} must be finite{bound}, got {value!r}")
