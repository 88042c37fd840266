"""Yule-Walker VAR fitting and white-noise tests.

The VAR model carries no intercept: loadings series are mean zero by
construction, so autocovariances are raw second moments without mean
removal. The portmanteau test, by contrast, uses mean-removed
autocovariances as usual. There is one portmanteau statistic,
``multivariate_portmanteau``; Ljung-Box is its d = 1 case.

Every moment is taken of the series over 2^e, e its ``binary_exponent``,
as the eigen routines do with curves: that is exact, so coefficients,
AIC order and p-values do not depend on the series' scale. The
innovation covariance maps back by 2^(2e); one the series' units cannot
hold as normal doubles raises ``ValidationError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConditioningError, DegenerateSeriesError, ValidationError, check_int
from .grids import FLOAT, binary_exponent, write_json

# Above this condition number a moment matrix is not inverted.
_MAX_CONDITION = 1e12


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


def _autocovariances(series: np.ndarray, max_lag: int) -> tuple[list[np.ndarray], int]:
    """Raw second-moment autocovariances Gamma(h) = E[x_t x_{t-h}'], divisor T,
    of the series over 2^e, and e, the series' ``binary_exponent``."""
    e = binary_exponent(series)
    series = np.ldexp(series, -e)
    t_len = series.shape[0]
    out = []
    for h in range(max_lag + 1):
        g = series[h:].T @ series[: t_len - h] / t_len
        if h == 0:
            g = (g + g.T) / 2.0
        out.append(g)
    return out, e


def var_fit_yule_walker(series: np.ndarray, order: int) -> VarFit:
    """Solve the multivariate Yule-Walker equations for a VAR(order).

    Uses divisor-T sample autocovariances without mean removal (the model
    has no intercept). The innovation covariance is the Schur complement
    of the block-Toeplitz moment matrix, symmetrized against roundoff.
    """
    x = _as_columns(series)
    check_int("order", order, 0)
    t_len = x.shape[0]
    return _yule_walker(*_autocovariances(x, min(order, t_len)), t_len, order)


def _yule_walker(gammas: list[np.ndarray], exponent: int, t_len: int, order: int) -> VarFit:
    """VAR(order) from the moments Gamma(0..order) of a length-``t_len``
    series over 2^exponent, with the innovation covariance in its units.

    The series must be longer than order * d + 1; that is checked before
    ``gammas`` is read, so the list may stop at lag min(order, t_len).
    """
    d = gammas[0].shape[0]
    if t_len <= order * d + 1:
        raise ValidationError(
            f"series of length {t_len} too short for VAR({order}) in dimension {d}"
        )
    if order == 0:
        return VarFit(0, [], _in_series_units(gammas[0], exponent, order))
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
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ConditioningError(f"block-Toeplitz system ill-conditioned (cond={cond:.3e})")
    mats = [sol[:, k * d : (k + 1) * d] for k in range(order)]
    sigma = gammas[0].copy()
    for k in range(1, order + 1):
        sigma -= mats[k - 1] @ gammas[k].T
    sigma = _in_series_units((sigma + sigma.T) / 2.0, exponent, order)
    return VarFit(order=order, coefficient_matrices=mats, innovation_covariance=sigma)


def _in_series_units(sigma: np.ndarray, exponent: int, order: int) -> np.ndarray:
    """The innovation covariance ``sigma`` of the series over 2^exponent in
    the series' units; a nonzero entry that overflows there or falls below
    the smallest normal double raises ``ValidationError``."""
    # Each nonzero entry in the series' units lies in [2^(top-1), 2^top).
    top = np.frexp(sigma[sigma != 0])[1] + 2 * exponent
    if np.any((top <= FLOAT.minexp) | (top > FLOAT.maxexp)):
        raise ValidationError(
            f"series values of magnitude {np.ldexp(0.5, exponent):.3g} put the VAR({order}) "
            "innovation covariance outside the normal double range; rescale the series"
        )
    return np.ldexp(sigma, 2 * exponent)


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
    gammas, e = _autocovariances(x, min(max_order, t_len))
    fits, raw = [], {}
    for tau in range(max_order + 1):
        fit = _yule_walker(gammas, e, t_len, tau)
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


def _portmanteau(terms, t_len: int, dof: int) -> PortmanteauResult:
    """T(T+2) sum_k t_k/(T-k) over the lag terms t_1..t_q, chi-square on ``dof``."""
    ks = np.arange(1, len(terms) + 1)
    stat = float(t_len * (t_len + 2) * np.sum(np.asarray(terms) / (t_len - ks)))
    return PortmanteauResult(statistic=stat, dof=dof, pvalue=_chi2_sf(stat, dof))


def ljung_box_from_autocorrelations(acfs: np.ndarray, n: int) -> PortmanteauResult:
    """Ljung-Box statistic n(n+2) sum_k r_k^2/(n-k) from the autocorrelations
    r_1..r_q of a series of length n > q, with a chi-square tail on q."""
    r = np.asarray(acfs, dtype=np.float64)
    check_int("n", n, r.size + 1)
    return _portmanteau(r**2, n, r.size)


def ljung_box(series: np.ndarray, q: int) -> PortmanteauResult:
    """Ljung-Box white-noise test on a scalar series: the portmanteau test
    ``multivariate_portmanteau`` on the series as one column."""
    return multivariate_portmanteau(np.ravel(series), q)


def multivariate_portmanteau(
    series: np.ndarray, q: int, fitted_order: int = 0
) -> PortmanteauResult:
    """Hosking's portmanteau test on a d-dimensional series.

    Q = T(T+2) sum_{k=1..q} tr(C_k' C_0^{-1} C_k C_0^{-1}) / (T-k) with
    C_k the divisor-T autocovariances (``_autocovariances``) of the
    mean-removed series; at d = 1 this is the Ljung-Box statistic, and
    ``ljung_box`` is this test on one column. Degrees of freedom are
    d^2 (q - tau), clamped at 1, where tau is ``fitted_order``: pass the
    order of a fitted VAR when testing its residuals, or leave it at 0
    for a raw series (d^2 q). A column of zero variance raises
    ``DegenerateSeriesError``; a singular or ill-conditioned C_0 otherwise
    raises ``ConditioningError``.
    """
    x = _as_columns(series)
    t_len, d = x.shape
    check_int("q", q, 1)
    check_int("fitted_order", fitted_order, 0)
    if t_len <= q:
        raise ValidationError(f"series length {t_len} must exceed q={q}")
    x = np.ldexp(x, -binary_exponent(x))  # so the mean cannot overflow
    (c0, *lagged), _ = _autocovariances(x - x.mean(axis=0), q)
    if np.any(np.diag(c0) <= 0.0):
        raise DegenerateSeriesError("constant column: autocorrelations undefined")
    try:
        c0_inv = np.linalg.inv(c0)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"singular lag-0 covariance: {exc}") from exc
    if np.linalg.cond(c0) > _MAX_CONDITION:
        raise ConditioningError("lag-0 covariance too ill-conditioned")
    terms = [np.trace(ck.T @ c0_inv @ ck @ c0_inv) for ck in lagged]
    return _portmanteau(terms, t_len, max(d * d * (q - fitted_order), 1))


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
