"""Eigenanalysis of the cumulative lag-autocovariance operator.

The operator of interest is K(u, v) = sum over lags k = 1..p of the
composition of the lag-k autocovariance kernel with its adjoint. Every
centered curve lies in the span of the panel's centered curves, and so
does the range of K, so its nonzero spectrum is that of an r x r matrix,
r being the panel's numerical rank (the method of snapshots, Sirovich,
1987). This module solves it there, and only there.

``_span_coordinates`` forms X, the root-weighted centered curves over
2^exponent, once, and finds an orthonormal basis Q of their span. A
diagonally pivoted Cholesky factorization of the curve Gram matrix X X^T
(a short numpy loop over pivots) picks r pivot curves and forms only its
pivots' Gram rows, so no n x n or m x m matrix is built. It stops at
LAPACK ``dpstrf``'s tolerance, n * eps times the largest squared norm of
the uncentered curves, and Householder ``qr`` orthonormalizes the pivot
curves. The basis costs O(r n m). In the coordinates X Q the quadrature
weights are one, and ``_reduced_operator`` builds the r x r matrix
sum_k M_k M_k^T with M_k = Z_0^T Z_k / (n-p), Z being those coordinates.

``decompose`` is the entry point for an observed panel: one symmetric
eigensolve of that r x r matrix gives the spectrum, clamped to zero
below EIGENVALUE_CLAMP of the leading eigenvalue (the rule every report
and decision applies) and exactly zero past r, and r sign-fixed
eigenfunctions, a quadrature-orthonormal basis of the span. The
``EigenDecomposition`` also carries its panel, its lag budget and the
centered curves' loadings on the eigenfunctions, in the curves' units:
the commands write those and fit their VAR, and the bootstrap resamples
them, so each panel is scaled, weighted, centered and projected once.
``operator_eigenvalues`` is the raw, unclamped, eigenvalues-only solve
for the Monte Carlo studies. Both agree with the m x m quadrature-weighted
grid operator to roundoff (about 1e-15 of the leading eigenvalue).

Every operator and span basis is built from the panel's values divided
by 2^``panel.exponent``, the binary exponent of their largest magnitude.
Dividing by a power of two is exact, so the spectrum maps back to the
curves' units exactly (times 2^(4 exponent)) and the decisions do not
depend on the curves' scale; only a leading eigenvalue that the curves'
units cannot hold as a normal double is an error (``ValidationError``).

This is the package's only eigen route. The grid-weighted m x m operator
and the paper's (n-p) x (n-p) dual matrix, built from lagged Gram
matrices of the centered curves, have the same nonzero spectrum; they
live in the test suite's ``tests/reference.py``, which acceptance
criterion 1 and the eigen tests check this module against.
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


@dataclass(frozen=True)
class EigenDecomposition:
    """Ordered spectrum and orthonormal eigenfunctions of ``panel``'s operator at ``p``.

    ``eigenvalues`` holds the m-entry spectrum (descending, entries below
    EIGENVALUE_CLAMP of the leading one clamped to zero, exact zeros past
    the numerical rank r), and ``eigenfunctions`` one orthonormal
    sign-fixed curve for each of the leading r: a basis of the span of
    the panel's centered curves. ``loadings`` (n x r) holds those curves'
    loadings on the r eigenfunctions, in the curves' units:
    ``loadings(panel, eigenfunctions)`` to roundoff.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    loadings: np.ndarray
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


def _reduced_operator(z: np.ndarray, p: int) -> np.ndarray:
    """The symmetric operator sum_k M_k M_k^T for centered curves given as
    rows of ``z`` in orthonormal coordinates, such as ``_span_coordinates``'s:
    M_k = Z_0^T Z_k / (n-p) is the lag-k product of the rows. numpy forms
    each M_k M_k^T as a symmetric product, so the sum is exactly symmetric."""
    n_eff = z.shape[0] - p
    z0 = z[:n_eff]
    acc = np.zeros((z.shape[1], z.shape[1]))
    for k in range(1, p + 1):
        mk = z0.T @ z[k : k + n_eff] / n_eff
        acc += mk @ mk.T
    return acc


def _cholesky_pivots(x: np.ndarray, tol: float) -> list[int]:
    """Pivot curves (rows of ``x``) of the diagonally pivoted Cholesky
    factorization of X X^T (Higham, 1990). Each step pivots on the largest
    diagonal entry of the Schur complement left by the previous ones and
    forms only that pivot's Gram row (Harbrecht, Peters and Schneider,
    2012); the factorization stops once no entry exceeds ``tol``, as
    LAPACK's ``dpstrf`` does, and the pivot curves span the rest to within it.
    """
    factor = np.empty((min(x.shape), x.shape[0]))  # row j: column j of the Cholesky factor
    diag = np.einsum("ij,ij->i", x, x)
    pivots: list[int] = []
    for j in range(len(factor)):
        i = int(np.argmax(diag))
        top = float(diag[i])
        if not top > tol:
            break
        col = factor[j]
        np.subtract(x @ x[i], factor[:j, i] @ factor[:j], out=col)
        col /= np.sqrt(top)
        diag -= col * col
        diag[i] = -np.inf
        pivots.append(i)
    return pivots


def _span_coordinates(panel: CurvePanel, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal basis Q (m x r) of the span of X, the panel's
    root-weighted centered curves over 2^exponent, and X's coordinates
    X Q (n x r), after checking the lag budget ``p``. The rank tolerance
    is taken on the uncentered curves: what centering leaves of a panel
    of identical curves is roundoff, rank 0.
    """
    check_lag_budget(panel, p)
    root = np.sqrt(panel.grid.weights)
    raw = np.ldexp(panel.values, -panel.exponent) * root
    x = raw - raw.mean(axis=0)
    tol = x.shape[0] * FLOAT.eps * float(np.max(np.einsum("ij,ij->i", raw, raw)))
    q = np.linalg.qr(x[_cholesky_pivots(x, tol)].T)[0]
    return q, x @ q


def operator_eigenvalues(panel: CurvePanel, p: int) -> np.ndarray:
    """Descending unclamped eigenvalues of the cumulative lag operator: the
    r eigenvalues of its span operator, then m - r exact zeros."""
    _, z = _span_coordinates(panel, p)
    lam = np.zeros(len(panel.grid))
    lam[: z.shape[1]] = _symmetric_solve(_reduced_operator(z, p))[::-1]
    return _in_curve_units(lam, panel)


def decompose(panel: CurvePanel, p: int = 5) -> EigenDecomposition:
    """Full pipeline: spectrum plus orthonormal eigenfunction curves.

    The spectrum has m entries: the r eigenvalues of the span operator,
    clamped, then m - r exact zeros. The eigenfunctions are the r
    eigenvectors of the span operator mapped back to the grid, in the
    same order, so they are a quadrature-orthonormal basis of the span of
    the centered curves; callers keep the leading k with
    ``eigenfunctions[:k]``. Each eigenfunction, and its column of
    ``loadings``, is flipped so its largest-magnitude grid value is
    positive, so output is deterministic.
    """
    q, z = _span_coordinates(panel, p)
    s, v = _symmetric_solve(_reduced_operator(z, p), vectors=True)
    v = v[:, ::-1]
    lam = np.zeros(len(panel.grid))
    lam[: s.size] = s[::-1]
    # An eigenfunction is its basis vector over sqrt(w).
    funcs = (q @ v).T / np.sqrt(panel.grid.weights)
    peaks = funcs[np.arange(s.size), np.argmax(np.abs(funcs), axis=1)]
    sign = np.where(peaks < 0, -1.0, 1.0)
    return EigenDecomposition(_in_curve_units(_clamp(lam), panel), funcs * sign[:, None],
                              np.ldexp((z @ v) * sign, panel.exponent), panel, p)


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


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_loadings_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not any(map(str.strip, lines)):
        # write_loadings_csv's file for a report with d_hat = 0: a blank
        # header and one blank line per curve.
        raise ParseError(f"{path}: holds no components (the report found d_hat = 0)")
    # A header is the first non-blank line, when none of its fields is a number.
    head = next((i for i, line in enumerate(lines) if line.strip()), 0)
    columns = None
    if lines and not any(map(_is_float, lines[head].split(","))):
        columns = lines[head].count(",") + 1  # rows hold one value per header field
        lines[head] = ""  # header row
    rows = read_float_rows(lines, path, columns=columns)
    if rows.shape[0] == 0:
        raise ParseError(f"{path}: no loading rows")
    return rows
