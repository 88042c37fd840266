"""Eigenanalysis of the cumulative lag-autocovariance operator.

The operator of interest is K(u, v) = sum over lags k = 1..p of the
composition of the lag-k autocovariance kernel with its adjoint.
``_reduced_operator`` is the one build of it on the grid: for curves
given as rows of grid values with the quadrature weights w, it centers
the rows and returns the symmetric m x m matrix W^{1/2} K W^{1/2},
summing (M_k W) M_k^T with M_k = Z_0^T Z_k / (n-p). Its eigenvectors
divided by sqrt(w) are quadrature-orthonormal eigenfunctions.

``decompose`` is the entry point for an observed panel: one symmetric
eigensolve of that matrix gives the spectrum with eigenvalues below
EIGENVALUE_CLAMP of the leading one set to zero, which is the rule every
report and decision applies, together with one sign-fixed eigenfunction
per eigenvalue. The ``EigenDecomposition`` it returns holds the panel
and lag budget it was built from, so callers solve an observed panel
once and pass the decomposition on: the bootstrap test reads its
eigenvalues, panel and p, and ``loadings`` projects the curves on its
eigenfunctions. ``operator_eigenvalues`` is the raw, unclamped,
eigenvalues-only solve of the same m x m matrix, which the Monte Carlo
eigenvalue studies use.

Every curve a bootstrap replicate holds (fitted curves plus resampled
residuals) lies in the span of the panel's centered curves, so its
nonzero spectrum is that of an r x r matrix, r being the panel's
numerical rank. ``_span_projection`` finds an orthonormal basis of that
span with one symmetric eigensolve of the m x m second-moment matrix of
the root-weighted centered curves; in its coordinates the weights are
one. ``dimension.bootstrap_test`` rotates those coordinates so that the
leading axes are the fitted eigenfunctions and builds every replicate's
r x r operator from lag products shared by all hypotheses; its spectrum
agrees with the grid's to roundoff (about 1e-15 of the leading
eigenvalue).

Every operator and span basis is built from the panel's values divided
by 2^``panel.exponent``, the binary exponent of their largest magnitude.
Dividing by a power of two is exact, so the spectrum maps back to the
curves' units exactly (times 2^(4 exponent)) and the decisions do not
depend on the curves' scale; only a leading eigenvalue that the curves'
units cannot hold as a normal double is an error (``ValidationError``).

This is the package's only eigen route. The paper's (n-p) x (n-p) dual
matrix, built from lagged Gram matrices of the centered curves, has the
same nonzero spectrum; it lives in the test suite's ``tests/reference.py``,
which acceptance criterion 1 checks this module against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NumericalFailureError, ParseError, ValidationError
from .grids import (
    FLOAT,
    CurvePanel,
    centered_values,
    check_lag_budget,
    read_float_rows,
    write_csv_rows,
    write_json,
)

# Eigenvalues this far below the leading one are numerical noise and are
# clamped to zero in reports.
EIGENVALUE_CLAMP = 1e-12


def _fix_signs(curves: np.ndarray) -> np.ndarray:
    """Flip each curve so its largest-magnitude grid value is positive."""
    peaks = curves[np.arange(curves.shape[0]), np.argmax(np.abs(curves), axis=1)]
    return curves * np.where(peaks < 0, -1.0, 1.0)[:, None]


@dataclass(frozen=True)
class EigenDecomposition:
    """Ordered spectrum and orthonormal eigenfunctions of ``panel``'s operator at ``p``.

    ``eigenvalues`` holds the full computed spectrum (descending, entries
    below EIGENVALUE_CLAMP of the leading one clamped to zero), and
    ``eigenfunctions`` one orthonormal sign-fixed curve per eigenvalue.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    panel: CurvePanel
    p: int


def _clamp(eigenvalues: np.ndarray) -> np.ndarray:
    """Copy of a descending spectrum with entries below EIGENVALUE_CLAMP of
    the leading one set to zero."""
    lam = eigenvalues.copy()
    if lam.size:
        floor = EIGENVALUE_CLAMP * max(float(lam[0]), 0.0)
        lam[lam < floor] = 0.0
    return lam


def _in_curve_units(lam: np.ndarray, panel: CurvePanel) -> np.ndarray:
    """A descending spectrum of the operator of ``panel``'s values over
    2^exponent, times 2^(4 exponent): the spectrum in the curves' own units.
    A positive leading eigenvalue that overflows there, or falls below the
    smallest normal double, raises ``ValidationError``."""
    e = 4 * panel.exponent
    # The leading eigenvalue in the curves' units lies in [2^(top-1), 2^top).
    top = int(np.frexp(lam[0])[1]) + e
    if lam[0] > 0 and not FLOAT.minexp < top <= FLOAT.maxexp:
        raise ValidationError(
            f"curve values of magnitude {np.ldexp(0.5, panel.exponent):.3g} put the leading "
            f"eigenvalue ({lam[0]:.3g} x 2^{e}) outside the normal double range; "
            "rescale the curves"
        )
    return np.ldexp(lam, e)


def _symmetric_solve(a: np.ndarray, vectors: bool = False):
    """Ascending ``eigvalsh`` (or ``eigh`` with ``vectors``) of a symmetric matrix."""
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc


def _reduced_operator(z: np.ndarray, p: int, w: np.ndarray) -> np.ndarray:
    """The symmetric operator W^{1/2} K W^{1/2} for curves given as rows of ``z``.

    ``w`` holds the diagonal weights of the coordinates' inner product:
    the quadrature weights when ``z`` holds grid values, unit weights when
    it holds coordinates in an orthonormal basis of a space holding every
    centered curve, such as ``_span_projection``'s. The rows are centered
    here. An eigenvector v of the result on the grid maps to the
    eigenfunction v / sqrt(w).
    """
    c = z - z.mean(axis=0)
    n_eff = c.shape[0] - p
    c0 = c[:n_eff]
    acc = np.zeros((c.shape[1], c.shape[1]))
    for k in range(1, p + 1):
        mk = c0.T @ c[k : k + n_eff] / n_eff
        acc += (mk * w) @ mk.T
    root = np.sqrt(w)
    sym = acc * root[:, None] * root[None, :]
    return (sym + sym.T) / 2.0


def _span_projection(panel: CurvePanel) -> tuple[np.ndarray, int]:
    """The m x r matrix taking curves to span coordinates, and the rank r.

    The span is that of the panel's root-weighted centered curves X. Its
    basis is the eigenvectors of X^T X above m * eps of the largest
    eigenvalue, and the matrix is those r columns times sqrt(w), so
    ``values @ proj`` gives a panel's coordinates: the mean curve adds
    the same row to each, which re-centering removes.
    """
    root = np.sqrt(panel.grid.weights)
    x = np.ldexp(centered_values(panel), -panel.exponent) * root
    s, u = _symmetric_solve(x.T @ x, vectors=True)
    r = int(np.count_nonzero(s > s.size * FLOAT.eps * s[-1]))
    return u[:, s.size - r :] * root[:, None], r


def operator_eigenvalues(panel: CurvePanel, p: int) -> np.ndarray:
    """Descending unclamped eigenvalues of the cumulative lag operator."""
    check_lag_budget(panel, p)
    z = np.ldexp(panel.values, -panel.exponent)
    lam = _symmetric_solve(_reduced_operator(z, p, panel.grid.weights))[::-1]
    return _in_curve_units(lam, panel)


def decompose(panel: CurvePanel, p: int = 5) -> EigenDecomposition:
    """Full pipeline: spectrum plus orthonormal eigenfunction curves.

    The eigenfunctions are the quadrature-orthonormal eigenvectors of the
    grid operator, one per eigenvalue and in the same order; callers keep
    the leading k with ``eigenfunctions[:k]``. Eigenfunction signs follow
    the positive-peak convention so output is deterministic.
    """
    check_lag_budget(panel, p)
    w = panel.grid.weights
    z = np.ldexp(panel.values, -panel.exponent)
    lam, v = _symmetric_solve(_reduced_operator(z, p, w), vectors=True)
    order = np.argsort(lam)[::-1]
    funcs = _fix_signs((v[:, order] / np.sqrt(w)[:, None]).T)
    return EigenDecomposition(_in_curve_units(_clamp(lam[order]), panel), funcs, panel, p)


def loadings(panel: CurvePanel, eigenfunctions: np.ndarray) -> np.ndarray:
    """Project centered curves on orthonormal eigenfunctions.

    Entry [t, j] is the quadrature inner product of the centered curve t
    with eigenfunction j; columns have mean zero by construction because
    the centered curves sum to zero over all n.
    """
    funcs = np.asarray(eigenfunctions, dtype=np.float64)
    if funcs.ndim != 2 or funcs.shape[1] != len(panel.grid):
        raise GridMismatchError("eigenfunctions do not match the panel grid")
    return (centered_values(panel) * panel.grid.weights) @ funcs.T


def write_decomposition_json(eigenvalues: np.ndarray, count: int, path) -> None:
    """A spectrum and the number of eigenfunctions kept with it."""
    write_json(path, {"eigenvalues": [float(x) for x in eigenvalues], "count": int(count)})


def write_loadings_csv(values: np.ndarray, path) -> None:
    header = [f"component_{j + 1}" for j in range(values.shape[1])]
    write_csv_rows(path, values, header)


def read_loadings_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not any(map(str.strip, lines)):
        # write_loadings_csv's file for a report with d_hat = 0: a blank
        # header and one blank line per curve.
        raise ParseError(f"{path}: holds no components (the report found d_hat = 0)")
    # The header, if any, is the first non-blank line.
    head = next((i for i, line in enumerate(lines) if line.strip()), 0)
    columns = None
    try:
        [float(tok) for line in lines[head : head + 1] for tok in line.split(",")]
    except ValueError:
        columns = lines[head].count(",") + 1  # rows hold one value per header field
        lines[head] = ""  # header row
    rows = read_float_rows(lines, path, columns=columns)
    if rows.shape[0] == 0:
        raise ParseError(f"{path}: no loading rows")
    return rows
