"""Dimension selection and subspace discrepancy metrics.

The number of dynamic components is decided two ways: a residual
bootstrap test of the hypothesis that a given ordered eigenvalue is zero,
and a threshold rule that counts eigenvalues above a shrinking cutoff.
The test takes one ``EigenDecomposition`` and reads the panel and lag
budget from it, so its replicates rebuild the operator that was observed.
Discrepancy between estimated and reference subspaces is measured with
one projection-overlap metric, defined for unequal dimensions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from .eigen import EigenDecomposition, _span_projection, _symmetric_solve, decompose
from .errors import BoundsError, ValidationError, check_int, check_positive_finite
from .grids import CurvePanel, Grid, centered_values, write_json

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
        check_int("n_draws", self.n_draws, 1)
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        check_int("seed", self.seed, 0)  # SeedSequence takes non-negative entropy only


def _replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    # Per-replicate stream keyed by (seed, index): results do not depend on
    # execution order or degree of parallelism.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))


def _rank_limit(panel: CurvePanel, p: int) -> int:
    """One past the largest testable d0: the operator of ``panel`` at lag
    budget p has at most min(n - p, m) nonzero eigenvalues."""
    return min(panel.n - p, len(panel.grid))


def bootstrap_test(
    dec: EigenDecomposition, d0s: Sequence[int], cfg: BootstrapConfig
) -> list[float]:
    """Bootstrap p-values for the hypotheses "eigenvalue d0+1 is zero",
    one per d0 in ``d0s``, in the same order.

    ``dec`` is ``decompose(panel, p)`` of the tested panel, and the
    replicates rebuild that operator from ``dec.panel`` at ``dec.p``.
    Each hypothesis reads its observed eigenvalue ``dec.eigenvalues[d0]``
    and fits the panel with the leading d0 eigenfunctions of ``dec``, so
    the test makes no solve of the observed panel. Every d0 must be an
    integer (else ``ValidationError``) with ``0 <= d0 < min(n - p, m)``
    (else ``BoundsError``), checked before any replicate is drawn.

    Each replicate adds resampled fitted residuals back to the fitted
    curves, rebuilds the operator and records its (d0+1)-th eigenvalue.
    The p-value is the fraction of replicates whose eigenvalue strictly
    exceeds the observed one (ties count as non-exceedance); the
    hypothesis is rejected when the p-value is at most alpha. An
    observed eigenvalue the clamp sets to zero, or one past the
    numerical rank r of the panel's centered curves (d0 >= r), is zero
    to working precision, so the hypothesis is not rejected: its p-value
    is 1 and it is neither fitted nor solved. A call whose observed
    eigenvalues are all zero builds no span basis either.

    One resample serves every hypothesis. Replicate b draws its n row
    indices from the stream keyed by (seed, b), and the B generators are
    built once per call, so a hypothesis gets the same p-value whether
    it is tested alone or with others (replicate eigenvalues agree to
    roundoff). Every replicate curve lies in the span of the panel's
    centered curves, whose coordinates are rotated so that the first
    ``top`` axes are the leading fitted eigenfunctions, ``top`` being
    the largest tested d0. In them, the replicate of hypothesis d0 keeps
    the panel's first d0 coordinates and resamples the rest, so its lag
    products M_k = Z_0^T Z_k / (n-p) are blocks of one product of the
    ``top`` fitted and the r resampled columns. One batched product over
    the p lags serves every hypothesis, and one batched ``eigvalsh``
    solves the r x r operators sum_k M_k M_k^T of all of them.
    """
    panel, p = dec.panel, dec.p
    n = panel.n
    limit = _rank_limit(panel, p)
    for d0 in d0s:
        check_int("d0", d0)
        if not 0 <= d0 < limit:
            raise BoundsError(
                f"need 0 <= d0 < min(n - p, m), got d0={d0}, n={n}, p={p}, "
                f"m={len(panel.grid)}"
            )
    live = sorted({d0 for d0 in d0s if dec.eigenvalues[d0] != 0.0})
    if live:
        proj, r = _span_projection(panel)
        live = [d0 for d0 in live if d0 < r]
    if not live:
        return [1.0 for _ in d0s]
    top = max(live)
    funcs = dec.eigenfunctions[:top]
    n_eff, width = n - p, top + r
    # Rows of x are coordinates over time: the top fitted ones, then the
    # replicate's r centered ones, scaled so that x_0 x_k^T is M_k of the
    # values over 2^exponent, whose eigenvalues are theta * 2^(-4 exponent).
    rotation = np.linalg.qr((funcs @ proj).T, mode="complete")[0]
    centered = np.ldexp(centered_values(panel), -panel.exponent)
    y = (proj @ rotation).T @ centered.T / np.sqrt(n_eff)
    x = np.empty((width, n))
    x[:top] = y[:top]
    lead = x[:, :n_eff]
    lagged = sliding_window_view(x[:, 1:], n_eff, axis=1).transpose(1, 2, 0)
    # Hypothesis d0 reads rows 0..d0-1 and top+d0..width-1 of x; entry
    # [h, i, k, j] of the gather is M_k[i, j] of hypothesis h, so each
    # hypothesis' p lag blocks sit side by side in an r x pr block.
    rows = np.array([np.r_[0:d0, top + d0 : width] for d0 in live])
    lag = np.arange(p)[:, None]
    flat = (lag * width + rows[:, :, None, None]) * width + rows[:, None, None, :]
    at = (np.arange(len(live)), r - 1 - np.array(live))
    theta = np.ldexp(dec.eigenvalues[live], -4 * panel.exponent)
    count = np.zeros(len(live), dtype=np.int64)
    for b in range(cfg.n_draws):
        c = np.take(y, _replicate_rng(cfg.seed, b).integers(0, n, size=n), axis=1)
        np.subtract(c, c.mean(axis=1, keepdims=True), out=x[top:])
        blocks = (lead @ lagged).take(flat).reshape(len(live), r, p * r)
        count += _symmetric_solve(blocks @ blocks.transpose(0, 2, 1))[at] > theta
    exceed = dict(zip(live, count.tolist()))
    return [exceed[d0] / cfg.n_draws if d0 in exceed else 1.0 for d0 in d0s]


def threshold_estimate(eigenvalues: np.ndarray, epsilon: float) -> int:
    """Count eigenvalues at or above epsilon (input finite and sorted descending)."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    check_positive_finite("epsilon", epsilon)
    if not np.all(np.isfinite(lam)):
        raise ValidationError("eigenvalues must be finite")
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
    check_int("n", n, 1)
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
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray


def select_dimension(
    panel: CurvePanel,
    p: int = 5,
    cfg: BootstrapConfig | None = None,
    d_max: int = 10,
) -> DimensionReport:
    """Scan hypotheses on eigenvalues 1..d_max and apply the threshold rule.

    ``d_max`` is capped at min(n - p, m), one past the largest d0 that
    ``bootstrap_test`` accepts, so the scan covers d0 < min(n - p, m, d_max).

    P-values are reported for each hypothesized rank; the selected
    dimension is the smallest d0 whose hypothesis "eigenvalue d0+1 is
    zero" is not rejected at level alpha (d_max when every hypothesis is
    rejected). The threshold rule runs alongside at the scale-relative
    cutoff ``default_epsilon``; it counts the clamped eigenvalues the
    report holds. For another cutoff eps, call
    ``threshold_estimate(report.eigenvalues, eps)``.
    """
    cfg = cfg or BootstrapConfig()
    check_int("d_max", d_max, 0)
    d_max = min(d_max, _rank_limit(panel, p))
    dec = decompose(panel, p)
    lam = dec.eigenvalues
    pvalues = bootstrap_test(dec, range(d_max), cfg)
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
    if not np.all(np.isfinite(z)):
        raise ValidationError(f"{name} must be finite")
    w = grid.weights
    gram = (z * w) @ z.T
    if np.max(np.abs(gram - np.eye(z.shape[0]))) > _ORTHONORMAL_TOL:
        raise ValidationError(f"{name} is not orthonormal within {_ORTHONORMAL_TOL}")
    # Symmetric re-orthonormalization removes the residual non-orthogonality
    # without preferring any basis vector.
    s, u = np.linalg.eigh(gram)
    inv_root = (u / np.sqrt(s)) @ u.T
    return inv_root @ z


def subspace_distance_general(
    grid: Grid, basis1: np.ndarray, basis2: np.ndarray
) -> float:
    """Projection-overlap distance between subspaces of any dimensions.

    One minus the overlap energy over the larger dimension, square-rooted:
    zero iff the spans coincide, one iff they are orthogonal, and
    sqrt(1 - d1/d2) for a d1-dimensional subspace of a d2-dimensional one;
    independent of the orthonormal bases chosen. Requires both bases
    finite and orthonormal (within 1e-6).
    """
    return _overlap_distance(
        grid,
        _validated_basis(grid, basis1, "basis1"),
        _validated_basis(grid, basis2, "basis2"),
    )


def _overlap_distance(grid: Grid, b1: np.ndarray, b2: np.ndarray) -> float:
    """``subspace_distance_general`` of bases already orthonormal under the
    grid's quadrature, as ``_validated_basis`` returns them; an empty
    ``b1`` is at distance exactly 1."""
    energy = float(np.sum(((b1 * grid.weights) @ b2.T) ** 2))
    dmax = max(b1.shape[0], b2.shape[0])
    return float(np.sqrt(max(0.0, 1.0 - energy / dmax)))


def write_dimension_report_json(report: DimensionReport, path) -> None:
    payload = {
        "d_hat": int(report.d_hat),
        "threshold_d": int(report.threshold_d),
        "epsilon": float(report.epsilon_used),
        "pvalues": {str(k): float(v) for k, v in sorted(report.pvalues.items())},
        "eigenvalues": [float(x) for x in report.eigenvalues],
    }
    write_json(path, payload)
