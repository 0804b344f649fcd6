"""Exception hierarchy shared across the pipeline.

The CLI maps ConfigError, and the ValueError or OSError of a malformed or
unreadable input file, to exit code 2, and NumericalError to exit code 3;
anything else escaping the CLI is a bug.
"""


class FieldscapeError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(FieldscapeError, ValueError):
    """A scalar field violates its invariants (shape mismatch, non-finite values)."""


class ConfigError(FieldscapeError):
    """Bad configuration file, flag value, or unknown model/transform name."""


class NumericalError(FieldscapeError):
    """A numerical routine failed to produce a usable result."""


class FactorizationError(NumericalError):
    """Covariance factorization failed (not positive definite after jitter)."""


class TrainingError(NumericalError):
    """SVM training cannot proceed (degenerate data) or did not converge."""


class CalibrationError(NumericalError):
    """Sigmoid calibration did not converge."""
