"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A run names an unknown experiment, preset or objective, lacks a field
    its study reads, or has a count out of range."""


class DomainError(ValueError):
    """A physical parameter is outside its admissible domain."""


class RangeError(ValueError):
    """An index (collision count, probe index) is out of range."""


class NormalizationError(ValueError):
    """A state vector deviates from unit norm beyond tolerance."""
