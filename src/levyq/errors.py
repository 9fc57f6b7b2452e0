"""Exception hierarchy.

Input-side problems (bad config, malformed data files) and numerical
failures (non-finite transforms, diverging integrals) are kept apart so
the CLI can map them to distinct exit codes.
"""


class LevyqError(Exception):
    """Base class for package errors."""


class InputError(LevyqError):
    """Invalid configuration, arguments, or data files."""


class NumericalError(LevyqError):
    """Numerical failure during estimation."""


class NoSolutionError(NumericalError):
    """A root/quantile does not exist for the requested level."""
