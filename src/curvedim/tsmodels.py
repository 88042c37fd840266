"""Scalar AR simulation, Yule-Walker VAR fitting, and white-noise tests.

The VAR model carries no intercept: loadings series are mean zero by
construction, so autocovariances are raw second moments without mean
removal. The portmanteau diagnostics, by contrast, use mean-removed
autocorrelations/autocovariances as usual.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import lfilter
from scipy.stats import chi2

from .errors import (
    ConditioningError,
    DegenerateSeriesError,
    NonstationarityError,
    ValidationError,
)
from .grids import write_json

# Steps drawn and discarded before an AR(1) path is returned.
BURN_IN = 500


def ar1_simulate(coefficient: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(1) path with unit-variance Gaussian innovations.

    The chain starts from its stationary law and ``BURN_IN`` steps are
    discarded on top, so the returned path is stationary from the first
    sample.
    """
    a = float(coefficient)
    if abs(a) >= 1.0:
        raise NonstationarityError(f"AR(1) coefficient must satisfy |a| < 1, got {a}")
    if length < 1:
        raise ValidationError("length must be >= 1")
    innovations = rng.standard_normal(BURN_IN + length)
    x0 = rng.standard_normal() / np.sqrt(1.0 - a * a)
    path, _ = lfilter([1.0], [1.0, -a], innovations, zi=np.array([a * x0]))
    return path[BURN_IN:]


@dataclass(frozen=True)
class VarFit:
    """Fitted no-intercept VAR: coefficients, innovation covariance, AIC."""

    order: int
    coefficient_matrices: list[np.ndarray]
    innovation_covariance: np.ndarray
    aic_table: dict[int, float] = field(default_factory=dict)


def _as_columns(series) -> np.ndarray:
    """The series as a float (T, d) array; a 1-d series becomes one column."""
    x = np.asarray(series, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def _autocovariances(series: np.ndarray, max_lag: int) -> list[np.ndarray]:
    """Raw second-moment autocovariances Gamma(h) = E[x_t x_{t-h}'], divisor T."""
    t_len = series.shape[0]
    out = []
    for h in range(max_lag + 1):
        g = series[h:].T @ series[: t_len - h] / t_len
        if h == 0:
            g = (g + g.T) / 2.0
        out.append(g)
    return out


def var_fit_yule_walker(series: np.ndarray, order: int) -> VarFit:
    """Solve the multivariate Yule-Walker equations for a VAR(order).

    Uses divisor-T sample autocovariances without mean removal (the model
    has no intercept). The innovation covariance is the Schur complement
    of the block-Toeplitz moment matrix, symmetrized against roundoff.
    """
    x = _as_columns(series)
    t_len, d = x.shape
    if order < 0:
        raise ValidationError("order must be >= 0")
    if t_len <= order * d + 1:
        raise ValidationError(
            f"series of length {t_len} too short for VAR({order}) in dimension {d}"
        )
    gammas = _autocovariances(x, order)
    if order == 0:
        return VarFit(order=0, coefficient_matrices=[], innovation_covariance=gammas[0])
    big = np.empty((order * d, order * d))
    for i in range(order):
        for j in range(order):
            h = j - i
            block = gammas[h] if h >= 0 else gammas[-h].T
            big[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    rhs = np.hstack([gammas[h] for h in range(1, order + 1)])  # d x (order*d)
    try:
        sol = np.linalg.solve(big.T, rhs.T).T  # B = rhs @ big^{-1}
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"singular block-Toeplitz system: {exc}") from exc
    cond = np.linalg.cond(big)
    if not np.isfinite(cond) or cond > 1e12:
        raise ConditioningError(f"block-Toeplitz system ill-conditioned (cond={cond:.3e})")
    mats = [sol[:, k * d : (k + 1) * d] for k in range(order)]
    sigma = gammas[0].copy()
    for k in range(1, order + 1):
        sigma -= mats[k - 1] @ gammas[k].T
    sigma = (sigma + sigma.T) / 2.0
    return VarFit(order=order, coefficient_matrices=mats, innovation_covariance=sigma)


def fit_var_with_aic(series: np.ndarray, max_order: int) -> VarFit:
    """The Yule-Walker VAR fit of lowest AIC among orders 0..max_order.

    Each order tau is fitted once with ``var_fit_yule_walker`` and scored
    T log det(innovation cov) + 2 tau d^2; the fit of the lowest score is
    returned as it is, with ``aic_table`` holding every order's score
    centered at that minimum (the minimum maps to 0.0).
    """
    x = _as_columns(series)
    if max_order < 0:
        raise ValidationError("max_order must be >= 0")
    t_len, d = x.shape
    fits, raw = [], {}
    for tau in range(max_order + 1):
        fit = var_fit_yule_walker(x, tau)
        sign, logdet = np.linalg.slogdet(fit.innovation_covariance)
        if sign <= 0:
            raise ConditioningError(
                f"innovation covariance at order {tau} is not positive definite"
            )
        fits.append(fit)
        raw[tau] = t_len * logdet + 2.0 * tau * d * d
    best = min(raw, key=raw.get)
    return replace(fits[best], aic_table={tau: raw[tau] - raw[best] for tau in raw})


def var_residuals(series: np.ndarray, fit: VarFit) -> np.ndarray:
    """One-step-ahead residuals of a fitted VAR on the given series."""
    x = _as_columns(series)
    tau = fit.order
    if tau == 0:
        return x.copy()
    resid = x[tau:].copy()
    for k, a in enumerate(fit.coefficient_matrices, start=1):
        resid -= x[tau - k : x.shape[0] - k] @ a.T
    return resid


@dataclass(frozen=True)
class PortmanteauResult:
    statistic: float
    dof: int
    pvalue: float


def sample_autocorrelations(series: np.ndarray, q: int) -> np.ndarray:
    """Mean-removed sample autocorrelations at lags 1..q, divisor n."""
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    if q < 1:
        raise ValidationError("q must be >= 1")
    if n <= q:
        raise ValidationError(f"series length {n} must exceed q={q}")
    c = x - x.mean()
    denom = float(c @ c)
    if denom <= 0.0:
        raise DegenerateSeriesError("constant series: autocorrelations undefined")
    return np.array([float(c[: n - k] @ c[k:]) / denom for k in range(1, q + 1)])


def ljung_box_from_autocorrelations(acfs: np.ndarray, n: int) -> PortmanteauResult:
    """Portmanteau statistic n(n+2) sum_k r_k^2/(n-k) with a chi-square tail."""
    r = np.asarray(acfs, dtype=np.float64)
    q = r.size
    ks = np.arange(1, q + 1)
    stat = float(n * (n + 2) * np.sum(r**2 / (n - ks)))
    return PortmanteauResult(statistic=stat, dof=q, pvalue=float(chi2.sf(stat, q)))


def ljung_box(series: np.ndarray, q: int) -> PortmanteauResult:
    """White-noise portmanteau test on a scalar series."""
    return ljung_box_from_autocorrelations(
        sample_autocorrelations(series, q), np.asarray(series).ravel().size
    )


def multivariate_portmanteau(
    series: np.ndarray, q: int, fitted_order: int = 0
) -> PortmanteauResult:
    """Multivariate portmanteau test on a d-dimensional series.

    Q = T(T+2) sum_{k=1..q} tr(C_k' C_0^{-1} C_k C_0^{-1}) / (T-k) with
    C_k the divisor-T autocovariances (``_autocovariances``) of the
    mean-removed series, so it reduces exactly to the scalar test at
    d = 1. Degrees of freedom are d^2 q; when applied to residuals of a
    fitted VAR(tau), pass ``fitted_order`` and the dof become
    d^2 (q - tau), clamped at 1.
    """
    x = _as_columns(series)
    t_len, d = x.shape
    if q < 1:
        raise ValidationError("q must be >= 1")
    if t_len <= q:
        raise ValidationError(f"series length {t_len} must exceed q={q}")
    c0, *lagged = _autocovariances(x - x.mean(axis=0), q)
    try:
        c0_inv = np.linalg.inv(c0)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"singular lag-0 covariance: {exc}") from exc
    if np.linalg.cond(c0) > 1e12:
        raise ConditioningError("lag-0 covariance too ill-conditioned")
    total = 0.0
    for k, ck in enumerate(lagged, start=1):
        total += float(np.trace(ck.T @ c0_inv @ ck @ c0_inv)) / (t_len - k)
    stat = t_len * (t_len + 2) * total
    dof = max(d * d * (q - fitted_order), 1) if fitted_order > 0 else d * d * q
    return PortmanteauResult(statistic=stat, dof=dof, pvalue=float(chi2.sf(stat, dof)))


def write_var_fit_json(fit: VarFit, path) -> None:
    """Coefficient matrices keyed by lag and the centered AIC row."""
    payload = {
        "order": int(fit.order),
        "coefficient_matrices": {
            str(k + 1): [[float(v) for v in row] for row in mat]
            for k, mat in enumerate(fit.coefficient_matrices)
        },
        "innovation_covariance": [
            [float(v) for v in row] for row in fit.innovation_covariance
        ],
        "aic_table": {str(k): float(v) for k, v in sorted(fit.aic_table.items())},
    }
    write_json(path, payload)
