"""Exception hierarchy shared across the package, and the one check of each
count, seed and positive real it takes (``check_int``, ``check_positive_finite``).

Every error carries a short machine-readable ``kind`` used by the CLI to
emit structured error reports and pick exit codes.
"""

import math
from numbers import Integral


class CurveDimError(Exception):
    """Base class for all package errors."""

    kind = "error"


class ParseError(CurveDimError):
    """Malformed input file (CSV/JSON)."""

    kind = "parse"


class ValidationError(CurveDimError):
    """Input violates a documented precondition or type invariant."""

    kind = "validation"


class GridMismatchError(CurveDimError):
    """Curves passed to one operation do not share a grid."""

    kind = "grid-mismatch"


class InsufficientSampleError(CurveDimError):
    """Too few curves for the requested lag budget."""

    kind = "insufficient-sample"


class BoundsError(CurveDimError):
    """Index outside the available range (e.g. hypothesis beyond spectrum)."""

    kind = "bounds"


class DegenerateSeriesError(CurveDimError):
    """Series has zero variance; autocorrelations are undefined."""

    kind = "degenerate-series"


class DomainError(CurveDimError):
    """Value outside the mathematical domain (e.g. nonpositive price)."""

    kind = "domain"


class MissingOpeningTickError(CurveDimError):
    """A trading day has no tick at or before the first sampling time."""

    kind = "missing-opening"


class DayProcessingError(CurveDimError):
    """A day failed inside the density pipeline; names the day."""

    kind = "day-processing"

    def __init__(self, day_id, cause: CurveDimError):
        self.day_id = day_id
        self.cause = cause
        self.kind = cause.kind
        super().__init__(f"day {day_id}: {cause}")


# Numerical failures map to CLI exit code 2 rather than 1.

class NumericalFailureError(CurveDimError):
    """Eigensolver or linear solver failed to converge."""

    kind = "numerical-failure"


class ConditioningError(NumericalFailureError):
    """A linear system is singular or too ill-conditioned to solve."""

    kind = "conditioning"


def check_int(name: str, value, low: int | None = None):
    """``value``, if it is an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return value


def check_positive_finite(name: str, value) -> None:
    """Nothing, if ``value`` is a positive finite real (not a bool)."""
    if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be positive and finite")


USER_ERROR_EXIT = 1
NUMERICAL_ERROR_EXIT = 2


def exit_code_for(err: Exception) -> int:
    return NUMERICAL_ERROR_EXIT if isinstance(err, NumericalFailureError) else USER_ERROR_EXIT
