"""Reference computations the tests check the package against.

The package solves the cumulative lag operator one way, with
``curvedim.eigen._reduced_operator``. This module keeps the paper's
other route, the (n-p) x (n-p) dual matrix
K* = (n-p)^-2 (sum_{k=1..p} G_k) G_0 built from lagged Gram matrices of
the centered curves (same quadrature, same nonzero spectrum), whose
eigenvectors weight the centered curves into eigenfunctions. It also
keeps the lag-k kernels M_k that the grid operator sum_k M_k W M_k^T is
made of (the form of Lam, Yao & Bathia 2011), built on their own, so
acceptance criterion 1 compares two independent constructions. And it
keeps the bootstrap on the grid: each replicate's curves are the fitted
curves plus resampled residuals, and its operator is the m x m
quadrature-weighted matrix, where the package works in rotated span
coordinates. Last, it keeps the factor-model draw as one scalar AR(1)
loop per factor, where the package runs one vectorised recursion over
the factors of many panels.

Inputs come from the tests, so nothing here validates its arguments
beyond the lag budget of ``dual_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from curvedim.dimension import BootstrapConfig, _replicate_rng
from curvedim.eigen import EigenDecomposition, _clamp, loadings
from curvedim.grids import CurvePanel, Grid, centered_values, check_lag_budget, mean_curve
from curvedim.simulation import BURN_IN, factor_curves, noise_curves
from curvedim.tsmodels import VarFit

_DROP_TOL = 1e-10


def inner_product(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """Trapezoid approximation of the L2 inner product of two curves."""
    return float(np.sum(grid.weights * f * g))


@dataclass(frozen=True)
class LagCovKernel:
    """Discretized lag-k autocovariance kernel on grid x grid."""

    grid: Grid
    lag: int
    values: np.ndarray


def lag_cov_kernel(panel: CurvePanel, k: int, p: int) -> LagCovKernel:
    """Sample lag-k autocovariance kernel.

    Centering subtracts the mean over all n curves, while the cross-product
    sum runs over t = 1..n-p with divisor n-p for every k. Truncating at
    n-p (not n-k) keeps the lag-0 and lag-k blocks the same size, which is
    what makes the finite dual eigenproblem well defined.
    """
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
    c = centered_values(panel)
    n_eff = panel.n - p
    block = c[k : k + n_eff]
    g = (block * panel.grid.weights) @ block.T
    return (g + g.T) / 2.0


def discretized_operator(panel: CurvePanel, p: int) -> np.ndarray:
    """Quadrature discretization sum_k M_k W M_k^T of the operator kernel,
    built from the lag covariance kernels directly (independent of the
    eigen module)."""
    w = panel.grid.weights
    m = len(panel.grid)
    acc = np.zeros((m, m))
    for k in range(1, p + 1):
        mk = lag_cov_kernel(panel, k, p).values
        acc += (mk * w) @ mk.T
    return acc


def bootstrap_fit(dec: EigenDecomposition, d0: int) -> tuple[np.ndarray, np.ndarray]:
    """Fitted curves of ``dec.panel`` (mean plus the leading d0
    eigenfunctions of ``dec``) and the residuals the bootstrap resamples."""
    panel = dec.panel
    funcs = dec.eigenfunctions[:d0]
    fitted = mean_curve(panel) + loadings(panel, funcs) @ funcs
    return fitted, panel.values - fitted


def grid_replicate_eigenvalues(
    dec: EigenDecomposition, d0: int, cfg: BootstrapConfig
) -> np.ndarray:
    """Eigenvalue d0+1 of each of the B bootstrap replicates of hypothesis
    d0, solved on the grid: a ``CurvePanel`` per replicate of ``dec.panel``
    and ``eigvalsh`` of its quadrature-weighted m x m operator at ``dec.p``."""
    panel, p = dec.panel, dec.p
    w = panel.grid.weights
    root = np.sqrt(w)
    fitted, residuals = bootstrap_fit(dec, d0)
    thetas = np.empty(cfg.n_draws)
    for b in range(cfg.n_draws):
        idx = _replicate_rng(cfg.seed, b).integers(0, panel.n, size=panel.n)
        star = CurvePanel(grid=panel.grid, values=fitted + residuals[idx])
        c = star.values - mean_curve(star)
        n_eff = star.n - p
        acc = 0.0
        for k in range(1, p + 1):
            mk = c[:n_eff].T @ c[k : k + n_eff] / n_eff
            acc = acc + (mk * w) @ mk.T
        sym = acc * root[:, None] * root[None, :]
        thetas[b] = np.linalg.eigvalsh((sym + sym.T) / 2.0)[::-1][d0]
    return thetas


def grid_reference_pvalue(dec: EigenDecomposition, d0: int, cfg: BootstrapConfig) -> float:
    """The bootstrap p-value of hypothesis d0 from the grid-solved replicates."""
    theta_obs = dec.eigenvalues[d0]
    if theta_obs == 0.0:
        return 1.0
    thetas = grid_replicate_eigenvalues(dec, d0, cfg)
    return int(np.count_nonzero(thetas > theta_obs)) / cfg.n_draws


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
    s0, u0 = np.linalg.eigh((g0 + g0.T) / 2.0)
    h = (u0 * np.sqrt(np.clip(s0, 0.0, None))) @ u0.T
    sym = h @ s @ h / (dm.n - dm.p) ** 2
    lam, v = np.linalg.eigh((sym + sym.T) / 2.0)
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


def subspace_distance(grid: Grid, basis1: np.ndarray, basis2: np.ndarray) -> float:
    """Projection-overlap distance between equal-dimension subspaces:
    sqrt(1 - ||B1 W B2'||_F^2 / d) for orthonormal d-row bases B1, B2.

    The package's ``subspace_distance_general`` normalizes by the larger
    dimension instead, so at equal dimensions the two must agree.
    """
    overlaps = (basis1 * grid.weights) @ basis2.T
    return float(np.sqrt(max(0.0, 1.0 - np.sum(overlaps**2) / basis1.shape[0])))


def ar1_lfilter(coefficient: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """One stationary AR(1) path of ``simulation.ar1_paths`` as a linear
    filter: ``rng`` draws the BURN_IN + length innovations, then the start,
    and ``scipy.signal.lfilter`` runs them with the stationary start as its
    state."""
    from scipy.signal import lfilter  # scipy is a test-only dependency

    a = float(coefficient)
    innovations = rng.standard_normal(BURN_IN + length)
    x0 = rng.standard_normal() / np.sqrt(1.0 - a * a)
    path, _ = lfilter([1.0], [1.0, -a], innovations, zi=np.array([a * x0]))
    return path[BURN_IN:]


def ar1_loop(coefficient: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """One stationary AR(1) path of ``simulation.ar1_paths`` as a scalar
    float loop over the draws ``ar1_lfilter`` makes."""
    a = float(coefficient)
    innovations = rng.standard_normal(BURN_IN + length).tolist()
    prev = float(rng.standard_normal() / np.sqrt(1.0 - a * a))
    path = []
    for e in innovations:
        prev = e + a * prev
        path.append(prev)
    return np.array(path[BURN_IN:])


def factor_panel(spec) -> CurvePanel:
    """``simulation.generate_panel`` one factor path at a time: a scalar
    AR(1) loop per factor, then the spec's noise from the same generator."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed))
    xi = np.column_stack([ar1_loop(a, spec.n, rng) for a in spec.ar_coefficients])
    values = xi @ factor_curves(spec.grid, spec.d)
    if spec.noise_terms:
        z = rng.standard_normal((spec.n, spec.noise_terms))
        weights = np.array([2.0 ** -(j - 1) for j in range(1, spec.noise_terms + 1)])
        values = values + (z * weights) @ noise_curves(spec.grid, spec.noise_terms)
    return CurvePanel(grid=spec.grid, values=values)


def companion_spectral_radius(fit: VarFit) -> float:
    """Spectral radius of the companion matrix; < 1 means a stable VAR."""
    if fit.order == 0:
        return 0.0
    d = fit.coefficient_matrices[0].shape[0]
    tau = fit.order
    comp = np.zeros((tau * d, tau * d))
    comp[:d] = np.hstack(fit.coefficient_matrices)
    if tau > 1:
        comp[d:, : (tau - 1) * d] = np.eye((tau - 1) * d)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def rate_regression_slopes(records: list[dict]) -> tuple[float, float]:
    """Log-log slopes of the mean errors against sample size, from the
    records of ``rate_study``.

    Returns (slope of mean |theta1 - theta_ref|, slope of mean theta2).
    """
    ns = np.array(sorted({r["n"] for r in records}), dtype=float)
    err1 = []
    err2 = []
    for n in ns:
        sel = [r for r in records if r["n"] == n]
        err1.append(np.mean([r["abs_err_theta1"] for r in sel]))
        err2.append(np.mean([r["theta2"] for r in sel]))
    slope1 = np.polyfit(np.log(ns), np.log(np.array(err1)), 1)[0]
    slope2 = np.polyfit(np.log(ns), np.log(np.array(err2)), 1)[0]
    return float(slope1), float(slope2)
