"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``kind`` used by the CLI to
emit structured error reports and pick exit codes.
"""


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


class NonstationarityError(CurveDimError):
    """Autoregressive coefficient outside the stationarity region."""

    kind = "nonstationary"


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


USER_ERROR_EXIT = 1
NUMERICAL_ERROR_EXIT = 2


def exit_code_for(err: Exception) -> int:
    return NUMERICAL_ERROR_EXIT if isinstance(err, NumericalFailureError) else USER_ERROR_EXIT
