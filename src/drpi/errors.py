"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, DataError -> 2,
NumericalError -> 3.
"""


class DrpiError(Exception):
    """Base class for package errors."""


class DataError(DrpiError):
    """Malformed, inconsistent, or otherwise unusable input data."""


class NumericalError(DrpiError):
    """A numerical procedure failed: a singular W'W in ``ols_sandwich``."""
