"""Grid-based curve panels and lag autocovariance estimation.

Curves are represented by their values on a shared strictly increasing
grid over a compact interval. Integrals are approximated by the trapezoid
rule on that grid (second-order accurate, exact for the piecewise-linear
interpolant, and valid for non-uniform spacing). Smoothing raw discrete
observations into curves is the caller's job; this module accepts curves
already evaluated on a common grid.
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
)


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

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    @staticmethod
    def uniform(a: float, b: float, m: int) -> "Grid":
        if m < 2 or not b > a:
            raise ValidationError("uniform grid needs m >= 2 and b > a")
        return Grid(np.linspace(a, b, m))


def _check_curve(grid: Grid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1 or f.size != len(grid):
        raise GridMismatchError(
            f"curve has {f.size} values but grid has {len(grid)} points"
        )
    return f


def inner_product(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """Trapezoid approximation of the L2 inner product of two curves."""
    f = _check_curve(grid, f)
    g = _check_curve(grid, g)
    return float(np.sum(grid.weights * f * g))


@dataclass(frozen=True)
class CurvePanel:
    """``n`` observed curves sharing one grid; row ``t`` is curve ``t``."""

    grid: Grid
    values: np.ndarray

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
        if not np.all(np.isfinite(v)):
            raise ValidationError("panel values must be finite")
        object.__setattr__(self, "values", _as_readonly(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LagCovKernel:
    """Discretized lag-k autocovariance kernel on grid x grid."""

    grid: Grid
    lag: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        m = len(self.grid)
        if v.shape != (m, m) or not np.all(np.isfinite(v)):
            raise ValidationError("kernel must be a finite m x m matrix")
        object.__setattr__(self, "values", _as_readonly(v))


def mean_curve(panel: CurvePanel) -> np.ndarray:
    """Pointwise average over all n curves of the panel."""
    return panel.values.mean(axis=0)


def centered_values(panel: CurvePanel) -> np.ndarray:
    """Panel values minus the mean curve (mean over all n curves)."""
    return panel.values - mean_curve(panel)


def check_lag_budget(panel: CurvePanel, p: int) -> None:
    """Reject a lag budget outside 1 <= p < n."""
    if p < 1:
        raise ValidationError(f"lag budget p must be >= 1, got {p}")
    if p >= panel.n:
        raise InsufficientSampleError(
            f"lag budget p={p} requires more than p curves, panel has n={panel.n}"
        )


def _check_lags(panel: CurvePanel, k: int, p: int) -> None:
    if not 0 <= k <= p:
        raise ValidationError(f"need 0 <= k <= p, got k={k}, p={p}")
    check_lag_budget(panel, p)


def lag_cov_kernel(panel: CurvePanel, k: int, p: int) -> LagCovKernel:
    """Sample lag-k autocovariance kernel.

    Centering subtracts the mean over all n curves, while the cross-product
    sum runs over t = 1..n-p with divisor n-p for every k. Truncating at
    n-p (not n-k) keeps the lag-0 and lag-k blocks the same size, which is
    what makes the finite dual eigenproblem well defined.
    """
    _check_lags(panel, k, p)
    c = centered_values(panel)
    n_eff = panel.n - p
    v = c[:n_eff].T @ c[k : k + n_eff] / n_eff
    if k == 0:
        v = (v + v.T) / 2.0  # enforce exact symmetry
    return LagCovKernel(grid=panel.grid, lag=k, values=v)


def gram_matrix(panel: CurvePanel, k: int, p: int) -> np.ndarray:
    """(n-p) x (n-p) matrix of centered inner products at lag k.

    Entry (t, s) is the quadrature inner product of the centered curves
    t+k and s+k. Symmetric positive semidefinite by construction.
    """
    _check_lags(panel, k, p)
    c = centered_values(panel)
    n_eff = panel.n - p
    block = c[k : k + n_eff]
    g = (block * panel.grid.weights) @ block.T
    return (g + g.T) / 2.0


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline.

    Every JSON output of the package goes through here, so all share one
    byte layout.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Panel file format: CSV, first row = grid points, one curve per subsequent
# row, values in round-trip decimal form.

def write_curves_csv(grid: Grid, curves: np.ndarray, path) -> None:
    """Write curves on ``grid`` in the panel CSV layout (any number of rows)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(repr(float(x)) for x in grid.points) + "\n")
        for row in np.asarray(curves, dtype=np.float64):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_panel_csv(panel: CurvePanel, path) -> None:
    write_curves_csv(panel.grid, panel.values, path)


def read_float_rows(
    lines, path, first_line: int = 1, columns: int | None = None
) -> np.ndarray:
    """Parse comma-separated lines (an open file or a list) as a float array.

    Blank lines are skipped. Every other line must hold ``columns`` fields
    (by default as many as the first such line) that parse as floats; the
    first line that does not raises ``ParseError`` naming ``path`` and its
    line number, counted from ``first_line``.
    """
    kept = [(n, s) for n, s in enumerate(map(str.strip, lines), start=first_line) if s]
    if not kept:
        return np.empty((0, columns or 0))
    if columns is None:
        columns = kept[0][1].count(",") + 1
    try:
        if any(line.count(",") + 1 != columns for _, line in kept):
            raise ValueError("ragged rows")
        # One conversion for the whole file: building a list per row costs
        # more than parsing when rows are short, as tick files' are.
        text = ",".join(line for _, line in kept)
        return np.array(text.split(","), dtype=np.float64).reshape(len(kept), columns)
    except ValueError:
        for lineno, line in kept:
            parts = line.split(",")
            if len(parts) != columns:
                raise ParseError(f"{path}: line {lineno}: expected {columns} columns")
            try:
                [float(tok) for tok in parts]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        raise


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
