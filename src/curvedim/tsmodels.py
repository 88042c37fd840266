"""AR(1) simulation, Yule-Walker VAR fitting, and white-noise tests.

The VAR model carries no intercept: loadings series are mean zero by
construction, so autocovariances are raw second moments without mean
removal. The portmanteau diagnostics, by contrast, use mean-removed
autocorrelations/autocovariances as usual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConditioningError,
    DegenerateSeriesError,
    NonstationarityError,
    ValidationError,
    check_int,
)
from .grids import write_json

# Steps drawn and discarded before an AR(1) path is returned.
BURN_IN = 500


def ar1_paths(coefficients, innovations, start) -> np.ndarray:
    """AR(1) paths, one per column, with their first ``BURN_IN`` steps dropped.

    Column j runs x_t = e_tj + a_j x_(t-1) from x_(-1) = start_j over the
    rows of the (BURN_IN + length, k) ``innovations``. Each step is one
    numpy multiply and one add over all k columns; they round as the
    scalar float operations do, so every column is bit-for-bit the path a
    scalar loop gives from its own coefficient, innovations and start.
    """
    a = np.asarray(coefficients, dtype=np.float64)
    x = np.array(innovations, dtype=np.float64, order="C")
    prev = np.array(start, dtype=np.float64)
    scaled = np.empty_like(prev)
    for row in x:
        np.multiply(a, prev, out=scaled)
        np.add(row, scaled, out=row)
        prev = row
    return x[BURN_IN:]


def ar1_simulate(coefficient: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(1) path with unit-variance Gaussian innovations.

    The chain starts from its stationary law and ``BURN_IN`` steps are
    discarded on top, so the returned path is stationary from the first
    sample. ``rng`` draws the BURN_IN + length innovations, then the
    start.
    """
    a = float(coefficient)
    if not abs(a) < 1.0:  # NaN fails this too
        raise NonstationarityError(f"AR(1) coefficient must satisfy |a| < 1, got {a}")
    check_int("length", length, 1)
    innovations = rng.standard_normal((BURN_IN + length, 1))
    start = rng.standard_normal() / np.sqrt(1.0 - a * a)
    return ar1_paths([a], innovations, [start])[:, 0]


@dataclass(frozen=True)
class VarFit:
    """Fitted no-intercept VAR: coefficients, innovation covariance, AIC."""

    order: int
    coefficient_matrices: list[np.ndarray]
    innovation_covariance: np.ndarray
    aic_table: dict[int, float] = field(default_factory=dict)


def _as_columns(series) -> np.ndarray:
    """The series as a float (T, d) array, T >= 1 and d >= 1; a 1-d series
    becomes one column."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValidationError(f"series must be 1-d or 2-d (T, d), got {x.ndim}-d")
    x = x[:, None] if x.ndim == 1 else x
    if x.shape[0] == 0:
        raise ValidationError("series has no observations (T = 0)")
    if x.shape[1] == 0:
        raise ValidationError("series has no components (d = 0)")
    return x


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
    check_int("order", order, 0)
    t_len = x.shape[0]
    return _yule_walker(_autocovariances(x, min(order, t_len)), t_len, order)


def _yule_walker(gammas: list[np.ndarray], t_len: int, order: int) -> VarFit:
    """VAR(order) from the moments Gamma(0..order) of a length-``t_len`` series.

    The series must be longer than order * d + 1; that is checked before
    ``gammas`` is read, so the list may stop at lag min(order, t_len).
    """
    d = gammas[0].shape[0]
    if t_len <= order * d + 1:
        raise ValidationError(
            f"series of length {t_len} too short for VAR({order}) in dimension {d}"
        )
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

    The lag moments are computed once, and each order tau is solved from
    their prefix as ``var_fit_yule_walker`` would and scored
    T log det(innovation cov) + 2 tau d^2; the fit of the lowest score is
    returned as it is, with ``aic_table`` holding every order's score
    centered at that minimum (the minimum maps to 0.0).
    """
    x = _as_columns(series)
    check_int("max_order", max_order, 0)
    t_len, d = x.shape
    gammas = _autocovariances(x, min(max_order, t_len))
    fits, raw = [], {}
    for tau in range(max_order + 1):
        fit = _yule_walker(gammas, t_len, tau)
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


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of the chi-square law with integer ``dof`` >= 1.

    Closed form: with h = x/2 and dof = 2m + 2a (a = 0 or 1/2), the tail is
    sum_{j<m} e^-h h^(j+a) / Gamma(j+a+1), plus erfc(sqrt(h)) when dof is
    odd. The largest term of the sum is taken in logs and the others are
    summed outward from it, relative to it, so nothing under- or
    overflows before the final product. Rounding in that term's exponent
    makes the relative error grow with h and dof: it stays below 1e-12
    up to dof = 200 and nears 1e-11 at dof = 5000, h = 6000. The result
    never exceeds 1.0; it is 1.0 when h = x/2 is 0 (x = 0 or the
    smallest subnormal), 0.0 at inf and nan for nan or x < 0.
    """
    if not x >= 0.0:
        return math.nan
    if math.isinf(x):
        return 0.0
    h = x / 2.0
    if h == 0.0:
        return 1.0
    m, odd = divmod(dof, 2)
    a = odd / 2.0
    head = math.erfc(math.sqrt(h)) if odd else 0.0
    if m == 0:
        return head
    # Term j grows while j + a <= h, so the largest has j = min(m - 1, h - a).
    top = min(m - 1, int(h - a))
    term = total = 1.0
    for j in range(top, 0, -1):
        term *= (j + a) / h
        total += term
    term = 1.0
    for j in range(top + 1, m):
        term *= h / (j + a)
        total += term
    peak = top + a
    return min(1.0, head + total * math.exp(peak * math.log(h) - h - math.lgamma(peak + 1.0)))


@dataclass(frozen=True)
class PortmanteauResult:
    statistic: float
    dof: int
    pvalue: float


def sample_autocorrelations(series: np.ndarray, q: int) -> np.ndarray:
    """Mean-removed sample autocorrelations at lags 1..q, divisor n."""
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    check_int("q", q, 1)
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
    return PortmanteauResult(statistic=stat, dof=q, pvalue=_chi2_sf(stat, q))


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
    d = 1. Degrees of freedom are d^2 (q - tau), clamped at 1, where tau
    is ``fitted_order``: pass the order of a fitted VAR when testing its
    residuals, or leave it at 0 for a raw series (d^2 q).
    """
    x = _as_columns(series)
    t_len, d = x.shape
    check_int("q", q, 1)
    check_int("fitted_order", fitted_order, 0)
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
    dof = max(d * d * (q - fitted_order), 1)
    return PortmanteauResult(statistic=stat, dof=dof, pvalue=_chi2_sf(stat, dof))


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
