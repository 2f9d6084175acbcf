"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: bad input data -> 3, numeric or
fitting failures -> 4, a worker process that died -> 5.
"""


class LfdrShrinkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LfdrShrinkError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(LfdrShrinkError, ValueError):
    """Input data is malformed, insufficient, or degenerate."""


class NumericError(LfdrShrinkError, RuntimeError):
    """An iterative numeric routine failed to converge."""


class FitError(NumericError):
    """Density fitting (Poisson regression) failed to converge."""


class WorkerError(LfdrShrinkError, RuntimeError):
    """A worker process died, for example killed by the out-of-memory killer."""
