"""Eigenanalysis of the cumulative lag-autocovariance operator.

The operator of interest is K(u, v) = sum over lags k = 1..p of the
composition of the lag-k autocovariance kernel with its adjoint.
``_reduced_operator`` is the one build of it: for curves given as rows
of coordinates with a diagonal inner product (weights w), it centers the
rows and returns the symmetric matrix W^{1/2} K W^{1/2}, summing
(M_k W) M_k^T with M_k = Z_0^T Z_k / (n-p).

On the grid, with the quadrature weights, that matrix is the m x m
quadrature-weighted discretization, whose eigenvectors divided by
sqrt(w) are quadrature-orthonormal eigenfunctions. ``decompose`` is the
entry point for an observed panel: one symmetric eigensolve of it gives
the spectrum with eigenvalues below EIGENVALUE_CLAMP of the leading one
set to zero, which is the rule every report and decision applies,
together with the requested number of sign-fixed eigenfunctions.
Callers solve an observed panel once and pass the ``EigenDecomposition``
on: the bootstrap test reads its observed eigenvalue and fits the panel
from it, and ``loadings`` projects the curves on its eigenfunctions.
``operator_eigenvalues`` is the raw, unclamped, eigenvalues-only solve
of the same m x m matrix, which the Monte Carlo eigenvalue studies use.

Every curve a bootstrap replicate holds (fitted curves plus resampled
residuals) lies in the span of the panel's centered curves, so its
nonzero spectrum is that of an r x r matrix, r being the panel's
numerical rank. ``_span_projection`` finds an orthonormal basis of that
span with one symmetric eigensolve of the m x m second-moment matrix of
the root-weighted centered curves, and ``_reduced_spectrum`` solves the
operator in those coordinates, where the weights are one. Its spectrum
agrees with the grid's to roundoff (about 1e-15 of the leading
eigenvalue).

The (n-p) x (n-p) dual matrix ``K* = (n-p)^-2 (sum_k G_k) G_0`` built from
lagged Gram matrices of centered curves is the exact dual of that problem
(same quadrature, same nonzero spectrum), and its eigenvectors weight the
centered curves into eigenfunctions. ``dual_matrix``, ``eigen_dual``,
``eigenfunctions_from_dual`` and ``gram_schmidt`` compute it as the
reference the duality tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundsError,
    GridMismatchError,
    NumericalFailureError,
    ParseError,
    ValidationError,
)
from .grids import (
    CurvePanel,
    Grid,
    centered_values,
    check_lag_budget,
    read_float_rows,
    write_csv_rows,
    write_curves_csv,  # eigenfunction CSVs use the panel layout
    write_json,
)

# Eigenvalues this far below the leading one are numerical noise and are
# clamped to zero in reports.
EIGENVALUE_CLAMP = 1e-12

_DROP_TOL = 1e-10


@dataclass(frozen=True)
class DualMatrix:
    """The (n-p) x (n-p) matrix sharing the operator's nonzero spectrum.

    ``values`` is K* = (n-p)^-2 S G_0 and ``lag_sum`` is S = sum_{k=1..p} G_k.
    """

    values: np.ndarray
    lag_sum: np.ndarray
    p: int
    n: int


def dual_matrix(panel: CurvePanel, p: int) -> DualMatrix:
    """Build K* = (n-p)^-2 (sum_{k=1..p} G_k) G_0 from lagged Gram matrices.

    G_k[t, s] is the quadrature inner product of the centered curves t+k
    and s+k, so each G_k is a diagonal block of the one n x n Gram matrix
    of the centered curves.
    """
    check_lag_budget(panel, p)
    c = centered_values(panel)
    g = (c * panel.grid.weights) @ c.T
    g = (g + g.T) / 2.0
    n_eff = panel.n - p
    s = sum(g[k : k + n_eff, k : k + n_eff] for k in range(1, p + 1))
    g0 = g[:n_eff, :n_eff]
    return DualMatrix(values=(s @ g0) / n_eff**2, lag_sum=s, p=p, n=panel.n)


def eigen_dual(dm: DualMatrix, g0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of the dual matrix, descending, with eigenvectors.

    ``g0`` must be the lag-0 Gram matrix of the panel the dual matrix was
    built from. With H the PSD square root of G0 and S the lag sum,
    K* = (n-p)^-2 (S H) H has the nonzero spectrum of the symmetric PSD
    matrix (n-p)^-2 H S H, whether or not G0 is singular, and an
    eigenvector v of the latter maps to the eigenvector S H v of K*. The
    eigenvalues are clamped like every reported spectrum; the vectors of
    clamped eigenvalues are zero and the others have unit length.
    """
    s = dm.lag_sum
    g0 = np.asarray(g0, dtype=np.float64)
    if g0.shape != s.shape:
        raise ValidationError("lag-0 Gram matrix does not match the dual matrix size")
    try:
        s0, u0 = np.linalg.eigh((g0 + g0.T) / 2.0)
        h = (u0 * np.sqrt(np.clip(s0, 0.0, None))) @ u0.T
        sym = h @ s @ h / (dm.n - dm.p) ** 2
        lam, v = np.linalg.eigh((sym + sym.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"dual eigensolver failed: {exc}") from exc
    lam = _clamp(lam[::-1])
    vec = s @ h @ v[:, ::-1]
    vec[:, lam == 0.0] = 0.0
    norms = np.linalg.norm(vec, axis=0)
    norms[norms == 0] = 1.0
    return lam, vec / norms


def eigenfunctions_from_dual(
    panel: CurvePanel, dual_vectors: np.ndarray, count: int
) -> np.ndarray:
    """Raw (not yet orthonormal) eigenfunction curves.

    Column j of ``dual_vectors`` weights the centered curves t = 1..n-p:
    the j-th eigenfunction is sum_t gamma_tj (Y_t - Ybar).
    """
    if count > dual_vectors.shape[1]:
        raise BoundsError(
            f"requested {count} eigenfunctions, only {dual_vectors.shape[1]} vectors"
        )
    n_eff = dual_vectors.shape[0]
    c = centered_values(panel)[:n_eff]
    return dual_vectors[:, :count].T @ c


def gram_schmidt(
    grid: Grid, curves: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Orthonormalize curves under the quadrature inner product.

    Modified Gram-Schmidt in the given order. A curve whose post-projection
    norm falls below 1e-10 of its original norm is numerically in the span
    of its predecessors; it is dropped and its index reported.

    Returns (orthonormal curves, dropped input indices).
    """
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim != 2 or curves.shape[0] == 0:
        raise ValidationError("gram_schmidt needs a nonempty 2-d array of curves")
    if curves.shape[1] != len(grid):
        raise GridMismatchError("curves do not match the grid")
    w = grid.weights
    kept: list[np.ndarray] = []
    dropped: list[int] = []
    for idx in range(curves.shape[0]):
        f = curves[idx].copy()
        orig = np.sqrt(max(float(np.sum(w * f * f)), 0.0))
        for q in kept:
            f -= float(np.sum(w * q * f)) * q
        norm = np.sqrt(max(float(np.sum(w * f * f)), 0.0))
        if norm < _DROP_TOL * orig or norm == 0.0:
            dropped.append(idx)
            continue
        kept.append(f / norm)
    return np.array(kept), dropped


def _fix_signs(curves: np.ndarray) -> np.ndarray:
    """Flip each curve so its largest-magnitude grid value is positive."""
    peaks = curves[np.arange(curves.shape[0]), np.argmax(np.abs(curves), axis=1)]
    return curves * np.where(peaks < 0, -1.0, 1.0)[:, None]


@dataclass(frozen=True)
class EigenDecomposition:
    """Ordered spectrum with orthonormal eigenfunctions on the panel grid.

    ``eigenvalues`` holds the full computed spectrum (descending, entries
    below EIGENVALUE_CLAMP of the leading one clamped to zero);
    ``eigenfunctions`` holds ``count`` orthonormal sign-fixed curves.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    @property
    def count(self) -> int:
        return self.eigenfunctions.shape[0]


def _clamp(eigenvalues: np.ndarray) -> np.ndarray:
    """Copy of a descending spectrum with entries below EIGENVALUE_CLAMP of
    the leading one set to zero."""
    lam = eigenvalues.copy()
    if lam.size:
        floor = EIGENVALUE_CLAMP * max(float(lam[0]), 0.0)
        lam[lam < floor] = 0.0
    return lam


def _symmetric_solve(a: np.ndarray, vectors: bool = False):
    """Ascending ``eigvalsh`` (or ``eigh`` with ``vectors``) of a symmetric matrix."""
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc


def _reduced_operator(z: np.ndarray, p: int, w: np.ndarray | None = None) -> np.ndarray:
    """The symmetric operator W^{1/2} K W^{1/2} for curves given as rows of ``z``.

    ``w`` holds the diagonal weights of the coordinates' inner product:
    the quadrature weights when ``z`` holds grid values, none (unit
    weights) when it holds coordinates in an orthonormal basis of a space
    holding every centered curve, such as ``_span_projection``'s. The
    rows are centered here. An eigenvector v of the result on the grid
    maps to the eigenfunction v / sqrt(w).
    """
    w = np.ones(z.shape[1]) if w is None else w
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


def _reduced_spectrum(z: np.ndarray, p: int, w: np.ndarray | None = None) -> np.ndarray:
    """Descending unclamped eigenvalues of ``_reduced_operator(z, p, w)``."""
    return _symmetric_solve(_reduced_operator(z, p, w))[::-1]


def _span_projection(panel: CurvePanel) -> tuple[np.ndarray, int]:
    """The m x r matrix taking curves to span coordinates, and the rank r.

    The span is that of the panel's root-weighted centered curves X. Its
    basis is the eigenvectors of X^T X above m * eps of the largest
    eigenvalue, and the matrix is those r columns times sqrt(w), so
    ``values @ proj`` gives a panel's coordinates: the mean curve adds
    the same row to each, which re-centering removes.
    """
    root = np.sqrt(panel.grid.weights)
    x = centered_values(panel) * root
    s, u = _symmetric_solve(x.T @ x, vectors=True)
    r = int(np.count_nonzero(s > s.size * np.finfo(np.float64).eps * s[-1]))
    return u[:, s.size - r :] * root[:, None], r


def operator_eigenvalues(panel: CurvePanel, p: int) -> np.ndarray:
    """Descending unclamped eigenvalues of the cumulative lag operator."""
    check_lag_budget(panel, p)
    return _reduced_spectrum(panel.values, p, panel.grid.weights)


def decompose(
    panel: CurvePanel, p: int = 5, n_components: int | None = None
) -> EigenDecomposition:
    """Full pipeline: spectrum plus orthonormal eigenfunction curves.

    The eigenfunctions are the leading ``n_components`` quadrature-
    orthonormal eigenvectors of the grid operator (by default, one per
    eigenvalue the clamp leaves nonzero). Eigenfunction signs follow the
    positive-peak convention so output is deterministic. A count below 0
    or above the grid size raises ``BoundsError``.
    """
    check_lag_budget(panel, p)
    w = panel.grid.weights
    lam, v = _symmetric_solve(_reduced_operator(panel.values, p, w), vectors=True)
    order = np.argsort(lam)[::-1]
    clamped = _clamp(lam[order])
    if n_components is None:
        n_components = int(np.count_nonzero(clamped))
    if not 0 <= n_components <= lam.size:
        raise BoundsError(
            f"requested {n_components} components, spectrum has {lam.size}"
        )
    funcs = (v[:, order] / np.sqrt(w)[:, None]).T
    funcs = _fix_signs(funcs[:n_components])
    return EigenDecomposition(eigenvalues=clamped, eigenfunctions=funcs)


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


def write_decomposition_json(dec: EigenDecomposition, path) -> None:
    payload = {
        "eigenvalues": [float(x) for x in dec.eigenvalues],
        "count": int(dec.count),
    }
    write_json(path, payload)


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
    try:
        [float(tok) for line in lines[:1] for tok in line.split(",")]
    except ValueError:
        lines[0] = ""  # header row
    rows = read_float_rows(lines, path)
    if rows.shape[0] == 0:
        raise ParseError(f"{path}: no loading rows")
    return rows
