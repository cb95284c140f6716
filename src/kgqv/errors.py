"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 2, numeric
failures exit 3, a failed acceptance bound exits 1.
"""


class KgqvError(Exception):
    """Base class for package errors."""


class UsageError(KgqvError):
    """Bad configuration or command-line input."""


class DomainError(KgqvError):
    """A point or index falls outside the domain it must lie in."""


class GridAlignmentError(UsageError):
    """An increment or evaluation point is not aligned with the lattice."""


class NumericError(KgqvError):
    """A computed statistic is non-finite or otherwise unusable."""
