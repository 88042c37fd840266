"""Dimension selection and subspace discrepancy metrics.

The number of dynamic components is decided two ways: a residual
bootstrap test of the hypothesis that a given ordered eigenvalue is zero,
and a threshold rule that counts eigenvalues above a shrinking cutoff.
Discrepancy between estimated and reference subspaces is measured with a
projection-overlap metric (equal dimensions) and its unequal-dimension
extension.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .eigen import (
    EigenDecomposition,
    _reduced_spectrum,
    _span_projection,
    decompose,
    loadings,
)
from .errors import BoundsError, ValidationError
from .grids import CurvePanel, Grid, mean_curve, write_json

_ORTHONORMAL_TOL = 1e-6

# Default eigenvalue threshold rule, relative to the leading eigenvalue:
# epsilon = DEFAULT_EPSILON_SCALE * theta_1 * n^(-DEFAULT_EPSILON_EXPONENT).
# Any exponent in (0, 1/2) makes the cutoff shrink while its squared value
# times n still diverges, which is what consistency of the rule needs. The
# scale and exponent were calibrated by Monte Carlo (1000 replications of
# the two-factor benchmark at n = 100/300/600): the cutoff must sit below
# the lower tail of the smallest signal eigenvalue yet above the upper
# tail of the noise floor, and 0.5 * n^(-2/5) separates them with the
# widest margin of the rules examined.
DEFAULT_EPSILON_SCALE = 0.5
DEFAULT_EPSILON_EXPONENT = 0.4


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, significance level, and RNG seed for the test."""

    n_draws: int = 200
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValidationError("bootstrap needs at least 1 replicate")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    # Per-replicate stream keyed by (seed, index): results do not depend on
    # execution order or degree of parallelism.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))


def _fit(
    panel: CurvePanel, dec: EigenDecomposition, d0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fitted curves (mean plus the leading d0 eigenfunctions of ``dec``)
    and the residuals the bootstrap resamples."""
    funcs = dec.eigenfunctions[:d0]
    fitted = mean_curve(panel) + loadings(panel, funcs) @ funcs
    return fitted, panel.values - fitted


def bootstrap_test(
    panel: CurvePanel, dec: EigenDecomposition, d0s: Sequence[int], p: int,
    cfg: BootstrapConfig,
) -> list[float]:
    """Bootstrap p-values for the hypotheses "eigenvalue d0+1 is zero",
    one per d0 in ``d0s``, in the same order.

    ``dec`` is the panel's own ``decompose(panel, p)``: each hypothesis
    reads its observed eigenvalue ``dec.eigenvalues[d0]`` and fits the
    panel with the leading d0 eigenfunctions of ``dec``, so the test
    makes no solve of the observed panel. Every d0 must satisfy
    ``0 <= d0 < min(n - p, m)``; one that does not raises ``BoundsError``
    before any replicate is drawn. A ``dec`` whose curves do not match
    the panel grid raises ``GridMismatchError``.

    Each replicate resamples the fitted residuals with replacement, adds
    them back to the fitted curves, rebuilds the operator, and records
    its (d0+1)-th eigenvalue. The replicate's centered curves lie in the
    span of the panel's centered curves, so its operator is built and
    solved as an r x r matrix in coordinates of that span, r being the
    panel's numerical rank; the span basis is built once, for the first
    hypothesis that draws replicates. The p-value is the fraction of
    replicates whose eigenvalue strictly exceeds the observed one (ties
    count as non-exceedance); the hypothesis is rejected when the p-value
    is at most alpha. An observed eigenvalue the clamp sets to zero, or
    one past the numerical rank (d0 >= r), is zero to working precision,
    so the hypothesis is not rejected and the p-value is 1 without
    drawing replicates.
    """
    n = panel.n
    limit = min(n - p, len(panel.grid))
    for d0 in d0s:
        if not 0 <= d0 < limit:
            raise BoundsError(
                f"need 0 <= d0 < min(n - p, m), got d0={d0}, n={n}, p={p}, "
                f"m={len(panel.grid)}"
            )
    span = None
    pvalues = []
    for d0 in d0s:
        fitted, residuals = _fit(panel, dec, d0)
        theta_obs = float(dec.eigenvalues[d0])
        if theta_obs == 0.0:
            pvalues.append(1.0)
            continue
        span = span or _span_projection(panel)
        proj, r = span
        if d0 >= r:
            pvalues.append(1.0)
            continue
        fitted_z = fitted @ proj
        residual_z = residuals @ proj
        exceed = 0
        for b in range(cfg.n_draws):
            rng = _replicate_rng(cfg.seed, b)
            idx = rng.integers(0, n, size=n)
            theta_star = _reduced_spectrum(fitted_z + residual_z[idx], p)[d0]
            if theta_star > theta_obs:
                exceed += 1
        pvalues.append(exceed / cfg.n_draws)
    return pvalues


def threshold_estimate(eigenvalues: np.ndarray, epsilon: float) -> int:
    """Count eigenvalues at or above epsilon (input sorted descending)."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValidationError("epsilon must be positive and finite")
    if lam.size and np.any(np.diff(lam) > 0):
        raise ValidationError("eigenvalues must be sorted in descending order")
    return int(np.sum(lam >= epsilon))


def default_epsilon(eigenvalues: np.ndarray, n: int) -> float:
    """Scale-relative cutoff: half the leading eigenvalue times n^(-2/5).

    Relative to the leading eigenvalue so the rule is invariant to a
    common rescaling of the curves. The scale (``DEFAULT_EPSILON_SCALE``,
    0.5) and exponent (``DEFAULT_EPSILON_EXPONENT``, 0.4) were calibrated
    at d = 2. On ``FactorModelSpec`` panels with p = 5 and n = 600 the
    rule recovers d = 2, 4 and 6 in 98, 47 and 5 of 100 panels, while the
    bootstrap ``d_hat`` of ``select_dimension`` (B = 200) recovers them in
    27, 28 and 27 of 30. Past d = 2, trust the bootstrap ``d_hat``.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    theta1 = float(lam[0]) if lam.size else 0.0
    return DEFAULT_EPSILON_SCALE * theta1 * float(n) ** (-DEFAULT_EPSILON_EXPONENT)


@dataclass(frozen=True)
class DimensionReport:
    """Outcome of the dimension determination on one panel.

    ``eigenvalues`` is the observed panel's clamped spectrum and
    ``eigenfunctions`` its ``d_hat`` leading eigenfunctions, both from the
    one ``decompose`` call the report is built on.

    ``threshold_d`` counts the eigenvalues at or above ``epsilon_used``.
    The default cutoff (``default_epsilon``) was calibrated at d = 2: at
    n = 600 it recovers d = 2, 4 and 6 in 98, 47 and 5 of 100 panels,
    against 27, 28 and 27 of 30 for the bootstrap ``d_hat``. Past d = 2,
    ``d_hat`` is the estimate to trust.
    """

    d_hat: int
    pvalues: dict[int, float]
    threshold_d: int
    epsilon_used: float
    eigenvalues: np.ndarray = field(default_factory=lambda: np.empty(0))
    eigenfunctions: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))


def select_dimension(
    panel: CurvePanel,
    p: int = 5,
    cfg: BootstrapConfig | None = None,
    d_max: int = 10,
) -> DimensionReport:
    """Scan hypotheses on eigenvalues 1..d_max and apply the threshold rule.

    P-values are reported for each hypothesized rank; the selected
    dimension is the smallest d0 whose hypothesis "eigenvalue d0+1 is
    zero" is not rejected at level alpha (d_max when every hypothesis is
    rejected). The threshold rule runs alongside at the scale-relative
    cutoff ``default_epsilon``; it counts the clamped eigenvalues the
    report holds. For another cutoff eps, call
    ``threshold_estimate(report.eigenvalues, eps)``.
    """
    cfg = cfg or BootstrapConfig()
    if d_max < 0:
        raise ValidationError(f"d_max must be >= 0, got {d_max}")
    d_max = min(d_max, len(panel.grid), panel.n - p - 1)
    dec = decompose(panel, p)
    lam = dec.eigenvalues
    pvalues = bootstrap_test(panel, dec, range(d_max), p, cfg)
    d_hat = next((d0 for d0, pv in enumerate(pvalues) if pv > cfg.alpha), d_max)
    eps = default_epsilon(lam, panel.n)
    threshold_d = threshold_estimate(lam, eps) if eps > 0 else 0
    return DimensionReport(
        d_hat=d_hat,
        pvalues={d0 + 1: pv for d0, pv in enumerate(pvalues)},
        threshold_d=threshold_d,
        epsilon_used=eps,
        eigenvalues=lam,
        eigenfunctions=dec.eigenfunctions[:d_hat],
    )


def _validated_basis(grid: Grid, basis: np.ndarray, name: str) -> np.ndarray:
    z = np.asarray(basis, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValidationError(f"{name} must be a nonempty 2-d array of curves")
    if z.shape[1] != len(grid):
        raise ValidationError(f"{name} curves do not match the grid")
    w = grid.weights
    gram = (z * w) @ z.T
    if np.max(np.abs(gram - np.eye(z.shape[0]))) > _ORTHONORMAL_TOL:
        raise ValidationError(f"{name} is not orthonormal within {_ORTHONORMAL_TOL}")
    # Symmetric re-orthonormalization removes the residual non-orthogonality
    # without preferring any basis vector.
    s, u = np.linalg.eigh(gram)
    inv_root = (u / np.sqrt(s)) @ u.T
    return inv_root @ z


def _overlap_energy(grid: Grid, b1: np.ndarray, b2: np.ndarray) -> float:
    overlaps = (b1 * grid.weights) @ b2.T
    return float(np.sum(overlaps**2))


def subspace_distance(grid: Grid, basis1: np.ndarray, basis2: np.ndarray) -> float:
    """Projection-overlap distance between equal-dimension subspaces.

    Zero iff the spans coincide, one iff they are orthogonal; independent
    of the orthonormal bases chosen. Requires both bases orthonormal
    (within 1e-6) and of equal size.
    """
    b1 = _validated_basis(grid, basis1, "basis1")
    b2 = _validated_basis(grid, basis2, "basis2")
    if b1.shape[0] != b2.shape[0]:
        raise ValidationError(
            f"equal-dimension metric got dimensions {b1.shape[0]} and {b2.shape[0]}"
        )
    d = b1.shape[0]
    return float(np.sqrt(max(0.0, 1.0 - _overlap_energy(grid, b1, b2) / d)))


def subspace_distance_general(
    grid: Grid, basis1: np.ndarray, basis2: np.ndarray
) -> float:
    """Extension of the subspace distance to unequal dimensions.

    Normalizes the overlap energy by the larger dimension; reduces to
    ``subspace_distance`` when the dimensions agree.
    """
    b1 = _validated_basis(grid, basis1, "basis1")
    b2 = _validated_basis(grid, basis2, "basis2")
    dmax = max(b1.shape[0], b2.shape[0])
    return float(np.sqrt(max(0.0, 1.0 - _overlap_energy(grid, b1, b2) / dmax)))


def write_dimension_report_json(report: DimensionReport, path) -> None:
    payload = {
        "d_hat": int(report.d_hat),
        "threshold_d": int(report.threshold_d),
        "epsilon": float(report.epsilon_used),
        "pvalues": {str(k): float(v) for k, v in sorted(report.pvalues.items())},
        "eigenvalues": [float(x) for x in report.eigenvalues],
    }
    write_json(path, payload)
