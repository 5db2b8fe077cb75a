"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, DataError -> 2;
numpy's LinAlgError, a numerical failure, -> 3.
"""


class DrpiError(Exception):
    """Base class for package errors."""


class DataError(DrpiError):
    """Malformed, inconsistent, or otherwise unusable input data."""

