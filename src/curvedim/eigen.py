"""Eigenanalysis of the cumulative lag-autocovariance operator.

The operator of interest is K(u, v) = sum over lags k = 1..p of the
composition of the lag-k autocovariance kernel with its adjoint. Its
nonzero spectrum and eigenfunctions are computed on the quadrature grid:
the operator kernel is discretized there and the quadrature-weighted
symmetric m x m eigenproblem is solved with a symmetric eigensolver, whose
eigenvectors are quadrature-orthonormal eigenfunctions directly.

``decompose`` is the entry point for an observed panel: it returns the
spectrum with eigenvalues below EIGENVALUE_CLAMP of the leading one set
to zero, which is the rule every report and decision applies, together
with sign-fixed eigenfunctions. ``operator_eigenvalues`` is the raw,
unclamped solve that bootstrap replicates and the Monte Carlo eigenvalue
studies use. Both take the same grid route.

The (n-p) x (n-p) dual matrix ``K* = (n-p)^-2 (sum_k G_k) G_0`` built from
lagged Gram matrices of centered curves is the exact dual of that problem
(same quadrature, same nonzero spectrum), and its eigenvectors weight the
centered curves into eigenfunctions. ``dual_matrix``, ``eigen_dual``,
``eigenfunctions_from_dual`` and ``gram_schmidt`` compute it as the
reference the duality tests compare against. It is not a faster path:
when the centered curves span fewer than n - p directions, as panels
from a finite-dimensional model do, its lag-0 Gram matrix is singular and
the solve falls back to a general nonsymmetric eigensolver (10-14 ms
against 2 ms for the grid route on two-factor panels with n = 100,
m = 101, p = 5, on a 2-core x86 machine), and Gram-Schmidt may drop
eigenfunctions that are numerically in the span of earlier ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundsError,
    GridMismatchError,
    InsufficientSampleError,
    NumericalFailureError,
    ParseError,
    ValidationError,
)
from .grids import (
    CurvePanel,
    Grid,
    centered_values,
    check_lag_budget,
    gram_matrix,
    mean_curve,
    read_float_rows,
    write_curves_csv,  # eigenfunction CSVs use the panel layout
)

# Eigenvalues this far below the leading one are numerical noise and are
# clamped to zero in reports.
EIGENVALUE_CLAMP = 1e-12

# Relative size of the smallest lag-0 Gram eigenvalue below which the
# symmetric similarity transform is abandoned for a general solver.
_SINGULAR_G0 = 1e-12

_DROP_TOL = 1e-10


@dataclass(frozen=True)
class DualMatrix:
    """The (n-p) x (n-p) matrix sharing the operator's nonzero spectrum."""

    values: np.ndarray
    p: int
    n: int


def dual_matrix(panel: CurvePanel, p: int) -> DualMatrix:
    """Build K* = (n-p)^-2 (sum_{k=1..p} G_k) G_0 from lagged Gram matrices."""
    if p < 1:
        raise ValidationError(f"lag budget p must be >= 1, got {p}")
    if p >= panel.n:
        raise InsufficientSampleError(
            f"lag budget p={p} requires more than p curves, panel has n={panel.n}"
        )
    n_eff = panel.n - p
    s = np.zeros((n_eff, n_eff))
    for k in range(1, p + 1):
        s += gram_matrix(panel, k, p)
    g0 = gram_matrix(panel, 0, p)
    return DualMatrix(values=(s @ g0) / n_eff**2, p=p, n=panel.n)


def _eig_general(kstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonsymmetric eigensolve with validation of the real spectrum."""
    try:
        lam, vec = np.linalg.eig(kstar)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed on dual matrix: {exc}") from exc
    radius = float(np.max(np.abs(lam))) if lam.size else 0.0
    imag = float(np.max(np.abs(lam.imag))) if lam.size else 0.0
    if radius > 0 and imag > 1e-8 * radius:
        raise NumericalFailureError(
            f"dual matrix spectrum not numerically real: max imag {imag:.3e} "
            f"vs spectral radius {radius:.3e}"
        )
    lam = lam.real
    vec = vec.real
    if radius > 0 and float(lam.min()) < -1e-8 * radius:
        raise NumericalFailureError(
            f"dual matrix spectrum has negative eigenvalue {lam.min():.3e} "
            f"vs spectral radius {radius:.3e}"
        )
    return lam, vec


def eigen_dual(dm: DualMatrix, g0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of the dual matrix, descending, with eigenvectors.

    ``g0`` must be the lag-0 Gram matrix of the panel the dual matrix was
    built from. Because K* equals a product of PSD matrices, it is similar
    to the symmetric matrix G0^{1/2} K* G0^{-1/2}; solving that with a
    symmetric eigensolver guarantees a real ordered spectrum, and the
    eigenvectors map back through G0^{-1/2}. When G0 is numerically
    singular the similarity is unavailable and a general nonsymmetric
    solver is used instead.
    """
    kstar = np.asarray(dm.values, dtype=np.float64)
    g0 = np.asarray(g0, dtype=np.float64)
    if g0.shape != kstar.shape:
        raise ValidationError("lag-0 Gram matrix does not match the dual matrix size")
    try:
        s0, u0 = np.linalg.eigh((g0 + g0.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolver failed on Gram matrix: {exc}") from exc
    s_max = float(s0.max()) if s0.size else 0.0
    if s_max <= 0 or float(s0.min()) < _SINGULAR_G0 * s_max:
        lam, vec = _eig_general(kstar)
    else:
        root = np.sqrt(s0)
        g0_half = (u0 * root) @ u0.T
        g0_half_inv = (u0 / root) @ u0.T
        sym = g0_half @ kstar @ g0_half_inv
        sym = (sym + sym.T) / 2.0
        try:
            lam, v = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc
        vec = g0_half_inv @ v
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vec = vec[:, order]
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
    count: int


def _clamp(eigenvalues: np.ndarray) -> np.ndarray:
    """Copy of a descending spectrum with entries below EIGENVALUE_CLAMP of
    the leading one set to zero."""
    lam = eigenvalues.copy()
    if lam.size:
        floor = EIGENVALUE_CLAMP * max(float(lam[0]), 0.0)
        lam[lam < floor] = 0.0
    return lam


def _grid_operator_symmetric(panel: CurvePanel, p: int) -> np.ndarray:
    """Quadrature-weighted symmetric discretization W^{1/2} K W^{1/2}."""
    check_lag_budget(panel, p)
    c = centered_values(panel)
    n_eff = panel.n - p
    w = panel.grid.weights
    c0 = c[:n_eff]
    m = c.shape[1]
    acc = np.zeros((m, m))
    for k in range(1, p + 1):
        mk = c0.T @ c[k : k + n_eff] / n_eff
        acc += (mk * w) @ mk.T
    root = np.sqrt(w)
    sym = acc * root[:, None] * root[None, :]
    return (sym + sym.T) / 2.0


def _decompose_grid(panel: CurvePanel, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and W-orthonormal eigenfunctions, grid route."""
    sym = _grid_operator_symmetric(panel, p)
    try:
        lam, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"grid-operator eigensolver failed: {exc}") from exc
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    v = v[:, order]
    funcs = (v / np.sqrt(panel.grid.weights)[:, None]).T
    return lam, funcs


def operator_eigenvalues(panel: CurvePanel, p: int) -> np.ndarray:
    """Descending unclamped eigenvalues of the cumulative lag operator."""
    lam, _ = _decompose_grid(panel, p)
    return lam


def decompose(
    panel: CurvePanel, p: int = 5, n_components: int | None = None
) -> EigenDecomposition:
    """Full pipeline: spectrum plus orthonormal eigenfunction curves.

    The eigenfunctions are the leading ``n_components`` quadrature-
    orthonormal eigenvectors of the grid operator (by default, one per
    eigenvalue the clamp leaves nonzero). Eigenfunction signs follow the
    positive-peak convention so output is deterministic.
    """
    lam, funcs = _decompose_grid(panel, p)
    clamped = _clamp(lam)
    if n_components is None:
        n_components = int(np.count_nonzero(clamped))
    if n_components > lam.size:
        raise BoundsError(
            f"requested {n_components} components, spectrum has {lam.size}"
        )
    funcs = _fix_signs(funcs[:n_components])
    return EigenDecomposition(
        eigenvalues=clamped, eigenfunctions=funcs, count=funcs.shape[0]
    )


@dataclass(frozen=True)
class LoadingsSeries:
    """Loadings of each curve on the estimated eigenfunctions.

    ``values[t, j]`` is the quadrature inner product of the centered curve
    t with eigenfunction j; columns have mean zero by construction because
    the centered curves sum to zero over all n.
    """

    values: np.ndarray
    eigenfunctions: np.ndarray


def loadings(panel: CurvePanel, eigenfunctions: np.ndarray) -> LoadingsSeries:
    """Project centered curves on orthonormal eigenfunctions."""
    funcs = np.asarray(eigenfunctions, dtype=np.float64)
    if funcs.ndim != 2 or funcs.shape[1] != len(panel.grid):
        raise GridMismatchError("eigenfunctions do not match the panel grid")
    c = centered_values(panel)
    vals = (c * panel.grid.weights) @ funcs.T
    return LoadingsSeries(values=vals, eigenfunctions=funcs)


def reconstruct(
    panel: CurvePanel,
    eigenfunctions: np.ndarray,
    loadings_values: np.ndarray,
) -> CurvePanel:
    """Fitted curves: mean curve plus loading-weighted eigenfunctions."""
    funcs = np.asarray(eigenfunctions, dtype=np.float64)
    lam = np.asarray(loadings_values, dtype=np.float64)
    if funcs.ndim != 2 or funcs.shape[1] != len(panel.grid):
        raise GridMismatchError("eigenfunctions do not match the panel grid")
    if lam.ndim != 2 or lam.shape != (panel.n, funcs.shape[0]):
        raise ValidationError(
            f"loadings shape {lam.shape} inconsistent with "
            f"({panel.n}, {funcs.shape[0]})"
        )
    fitted = mean_curve(panel) + lam @ funcs
    return CurvePanel(grid=panel.grid, values=fitted)


def fit_panel(
    panel: CurvePanel, p: int, n_components: int
) -> tuple[CurvePanel, np.ndarray, EigenDecomposition, LoadingsSeries]:
    """Decompose, project, and reconstruct with a fixed component count.

    Returns (fitted panel, residual matrix, decomposition, loadings).
    """
    dec = decompose(panel, p, n_components=n_components)
    lam = loadings(panel, dec.eigenfunctions)
    fitted = reconstruct(panel, dec.eigenfunctions, lam.values)
    residuals = panel.values - fitted.values
    return fitted, residuals, dec, lam


def write_decomposition_json(dec: EigenDecomposition, path) -> None:
    payload = {
        "eigenvalues": [float(x) for x in dec.eigenvalues],
        "count": int(dec.count),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_loadings_csv(series: LoadingsSeries, path) -> None:
    ncols = series.values.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"component_{j + 1}" for j in range(ncols)) + "\n")
        for row in series.values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_loadings_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    try:
        read_float_rows(lines[:1], path)
    except ParseError:
        lines[0] = ""  # header row
    rows = read_float_rows(lines, path)
    if rows.shape[0] == 0:
        raise ParseError(f"{path}: no loading rows")
    return rows
