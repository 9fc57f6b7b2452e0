"""Exception hierarchy.

Input-side problems (bad config, malformed data files) and numerical
failures (non-finite transforms, diverging integrals) are kept apart so
the CLI can map them to distinct exit codes.
"""


class LevyqError(Exception):
    """Base class for package errors."""


class InputError(LevyqError):
    """Invalid configuration, arguments, or data files."""


class ChainFormatError(InputError):
    """Malformed option-chain CSV."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(LevyqError):
    """Numerical failure during estimation."""


class NoSolutionError(NumericalError):
    """A root/quantile does not exist for the requested level."""


class MartingaleError(NumericalError):
    """The model's discounted-asset martingale identity is violated."""
