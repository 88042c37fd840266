"""Grid-based curve panels, their centering and lag budget, and file I/O.

Curves are represented by their values on a shared strictly increasing
grid over a compact interval. Integrals are approximated by the trapezoid
rule on that grid (second-order accurate, exact for the piecewise-linear
interpolant, and valid for non-uniform spacing). Smoothing raw discrete
observations into curves is the caller's job; this module accepts curves
already evaluated on a common grid.

The lag autocovariances are estimated inside ``eigen._reduced_operator``.
Their kernel-by-kernel form and the lagged Gram matrices of the dual
problem are the duality reference in the test suite's
``tests/reference.py``, which acceptance criterion 1 checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridMismatchError,
    InsufficientSampleError,
    ParseError,
    ValidationError,
    check_int,
)

FLOAT = np.finfo(np.float64)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.flags.writeable:
        out = out.copy()
        out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Grid:
    """Strictly increasing abscissae spanning a compact interval.

    The quadrature ``weights`` are the trapezoid weights derived from the
    point spacing, so ``weights @ f`` approximates the integral of ``f``
    over the interval.
    """

    points: np.ndarray
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("grid needs at least 2 points in a 1-d array")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValidationError("grid points must be strictly increasing")
        object.__setattr__(self, "points", _as_readonly(pts))
        w = np.zeros_like(pts)
        gaps = np.diff(pts)
        w[:-1] += gaps / 2.0
        w[1:] += gaps / 2.0
        object.__setattr__(self, "weights", _as_readonly(w))

    def __len__(self) -> int:
        return self.points.size

    @staticmethod
    def uniform(a: float, b: float, m: int) -> "Grid":
        check_int("m", m, 2)
        if not b > a:
            raise ValidationError("uniform grid needs b > a")
        return Grid(np.linspace(a, b, m))


def binary_exponent(values: np.ndarray) -> int:
    """The binary exponent e of the largest |value|, as ``np.frexp`` gives it.
    Dividing by 2^e is exact and puts every |value| below one, so the
    moments of the quotients neither overflow nor underflow in any units."""
    return int(np.frexp(max(values.max(), -values.min()))[1])


def check_finite_values(values: np.ndarray) -> None:
    """Reject curve values, of one panel or a stack of them, that are not all finite."""
    if not np.all(np.isfinite(values)):
        raise ValidationError("panel values must be finite")


@dataclass(frozen=True)
class CurvePanel:
    """``n`` observed curves sharing one grid; row ``t`` is curve ``t``.

    ``exponent`` is the ``binary_exponent`` of the values. The eigen
    routines build every operator from the values divided by 2^exponent,
    which is exact and keeps the products clear of overflow and underflow
    in any units.
    """

    grid: Grid
    values: np.ndarray
    exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValidationError("panel values must be a 2-d array")
        if v.shape[0] < 2:
            raise ValidationError("panel needs at least 2 curves")
        if v.shape[1] != len(self.grid):
            raise GridMismatchError(
                f"panel rows have {v.shape[1]} values but grid has {len(self.grid)} points"
            )
        check_finite_values(v)
        object.__setattr__(self, "values", _as_readonly(v))
        object.__setattr__(self, "exponent", binary_exponent(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def mean_curve(panel: CurvePanel) -> np.ndarray:
    """Pointwise average over all n curves of the panel."""
    return panel.values.mean(axis=0)


def centered_values(panel: CurvePanel) -> np.ndarray:
    """Panel values minus the mean curve (mean over all n curves)."""
    return panel.values - mean_curve(panel)


def check_lag_budget(n: int, p: int) -> None:
    """Reject a lag budget that is not an integer with 1 <= p < n, n being
    the curves per panel."""
    check_int("lag budget p", p, 1)
    if p >= n:
        raise InsufficientSampleError(
            f"lag budget p={p} requires more than p curves, panel has n={n}"
        )


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline.

    Every JSON output of the package goes through here, so all share one
    byte layout.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_cell(x) -> str:
    return str(x) if isinstance(x, (int, np.integer)) else repr(float(x))


def write_csv_rows(path, rows, header: list[str] | None = None) -> None:
    """Write the header line, if given, then one comma-separated line per
    row: integer cells as ``str``, others as the ``repr`` of their float.

    Every CSV of the package goes through here, so all share one format.
    An array row is first converted with ``tolist``: formatting Python
    scalars is cheaper than formatting numpy ones.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            cells = row.tolist() if isinstance(row, np.ndarray) else row
            fh.write(",".join(map(_csv_cell, cells)) + "\n")


# Panel file format: CSV, first row = grid points, one curve per subsequent
# row.

def write_curves_csv(grid: Grid, curves: np.ndarray, path) -> None:
    """Write curves on ``grid`` in the panel CSV layout (any number of rows)."""
    write_csv_rows(path, [grid.points, *np.asarray(curves, dtype=np.float64)])


def write_panel_csv(panel: CurvePanel, path) -> None:
    write_curves_csv(panel.grid, panel.values, path)


def read_float_rows(
    lines, path, first_line: int = 1, columns: int | None = None
) -> np.ndarray:
    """Parse comma-separated lines (an open file or a list) as a float array.

    Blank lines are skipped. Every other line must hold ``columns`` fields
    (by default as many as the first such line) that parse as finite
    floats; the first line that does not raises ``ParseError`` naming
    ``path`` and its line number, counted from ``first_line``.
    """
    lines = list(lines)
    rows = None
    # np.loadtxt parses well-formed text in C; anything it rejects or reads
    # with another width goes through the line-by-line parse below, which
    # names the offending line. Input with no data skips loadtxt, which
    # would warn on it.
    if any(map(str.strip, lines)):
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if rows is None or columns not in (None, rows.shape[1]):
        kept = _numbered_lines(lines, first_line)
        if columns is None:
            columns = kept[0][1].count(",") + 1 if kept else 0
        values = []
        for lineno, line in kept:
            parts = line.split(",")
            if len(parts) != columns:
                raise ParseError(f"{path}: line {lineno}: expected {columns} columns")
            try:
                values.append([float(tok) for tok in parts])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        rows = np.array(values, dtype=np.float64).reshape(len(kept), columns)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        lineno = _numbered_lines(lines, first_line)[int(np.argmin(finite))][0]
        raise ParseError(f"{path}: line {lineno}: non-finite value")
    return rows


def _numbered_lines(lines, first_line: int) -> list[tuple[int, str]]:
    """The non-blank lines, stripped, each with its line number."""
    return [(n, s) for n, s in enumerate(map(str.strip, lines), start=first_line) if s]


def read_panel_csv(path) -> CurvePanel:
    with open(path, "r", encoding="utf-8") as fh:
        rows = read_float_rows(fh, path)
    if rows.shape[0] < 3:
        raise ParseError(f"{path}: need a grid row and at least 2 curve rows")
    try:
        grid = Grid(rows[0])
        return CurvePanel(grid=grid, values=rows[1:])
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from exc
