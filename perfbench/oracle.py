"""Reference results the benchmark checks the program's outputs against.

Each function restates one computation of the method as the package
does it at the commit that added this benchmark, in plain NumPy and
without importing the package: the grid-route operator spectrum, the
residual bootstrap p-value, the daily return-density panel and the
subspace-error study. Bootstrap replicates and study panels are solved in
coordinates of the span of the panel's curves, which gives the grid
route's eigenvalues to roundoff at a fraction of its cost. Checks compare
the program's files with these results outside the timed region.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from inputs import SESSION_CLOSE, SESSION_OPEN, numerical_rank, trapezoid_weights

ALPHA = 0.05
CLAMP = 1e-12  # eigenvalues below CLAMP * lambda_1 are reported as zero
# A replicate eigenvalue within TIE_RTOL * lambda_1 of the observed one is a roundoff tie.
TIE_RTOL = 1e-10
# Directions with singular value below BASIS_RTOL of the largest are left
# out of a panel's row basis; they move no eigenvalue by more than about
# BASIS_RTOL of the leading one.
BASIS_RTOL = 1e-12
# The density command's defaults: 5-minute returns over the session, KDE on
# GRID_POINTS points of SUPPORT.
INTERVAL_MINUTES = 5.0
SUPPORT = (-0.002, 0.002)
GRID_POINTS = 201
# The subspace-error study's grid size.
STUDY_GRID_POINTS = 101


def _symmetric_operator(values: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """W^{1/2} (sum_k M_k W M_k^T) W^{1/2} with M_k the lag-k covariance."""
    c = values - values.mean(axis=0)
    n_eff = values.shape[0] - p
    c0 = c[:n_eff]
    acc = np.zeros((values.shape[1], values.shape[1]))
    for k in range(1, p + 1):
        mk = c0.T @ c[k : k + n_eff] / n_eff
        acc += (mk * w) @ mk.T
    root = np.sqrt(w)
    sym = acc * root[:, None] * root[None, :]
    return (sym + sym.T) / 2.0


def spectrum(values: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """Descending eigenvalues of the cumulative lag-1..p operator."""
    return np.linalg.eigvalsh(_symmetric_operator(values, w, p))[::-1]


def eigenfunctions(values: np.ndarray, w: np.ndarray, p: int, count: int) -> np.ndarray:
    """Leading ``count`` W-orthonormal eigenfunctions, largest peak positive."""
    lam, v = np.linalg.eigh(_symmetric_operator(values, w, p))
    funcs = (v[:, np.argsort(lam)[::-1][:count]] / np.sqrt(w)[:, None]).T
    peaks = funcs[np.arange(count), np.argmax(np.abs(funcs), axis=1)]
    return funcs * np.where(peaks < 0, -1.0, 1.0)[:, None]


def row_basis(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the panel's curves in W^{1/2}-weighted coordinates."""
    _, s, vt = np.linalg.svd(values * np.sqrt(w), full_matrices=False)
    return vt[: int(np.sum(s > BASIS_RTOL * s[0]))]


def reduced_operator(coords: np.ndarray, p: int) -> np.ndarray:
    """The operator in basis coordinates: sum_k M_k M_k^T, M_k = Z_0^T Z_k / (n-p).

    For curves whose weighted values are ``coords @ basis``, its
    eigenvalues are the operator's nonzero ones and its eigenvectors map
    to eigenfunctions through the basis.
    """
    c = coords - coords.mean(axis=0)
    n_eff = coords.shape[0] - p
    acc = np.zeros((c.shape[1], c.shape[1]))
    for k in range(1, p + 1):
        mk = c[:n_eff].T @ c[k : k + n_eff] / n_eff
        acc += mk @ mk.T
    return (acc + acc.T) / 2.0


def _replicate_rng(seed: int, b: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


def bootstrap_pvalue(values, w, p: int, d0: int, n_draws: int, seed: int):
    """Bootstrap p-value for "eigenvalue d0+1 is zero", as an interval.

    Replicates keep the d0-component fit and resample its residual curves.
    A replicate whose eigenvalue ties with the observed one (TIE_RTOL) may
    count either way, so the result is the (lowest, highest) p-value.
    """
    n = values.shape[0]
    observed = spectrum(values, w, p)
    theta, tie = observed[d0], TIE_RTOL * observed[0]
    funcs = eigenfunctions(values, w, p, d0)
    mean = values.mean(axis=0)
    fitted = mean + ((values - mean) * w) @ funcs.T @ funcs
    residuals = values - fitted
    # Every replicate's curves lie in the span of the panel's curves, so
    # its spectrum is solved in that span's coordinates.
    basis = row_basis(values, w)
    fitted_z = (fitted * np.sqrt(w)) @ basis.T
    residual_z = (residuals * np.sqrt(w)) @ basis.T
    exceed = ties = 0
    for b in range(n_draws):
        idx = _replicate_rng(seed, b).integers(0, n, size=n)
        lam = np.linalg.eigvalsh(reduced_operator(fitted_z + residual_z[idx], p))[::-1]
        star = lam[d0] if d0 < lam.size else 0.0
        if abs(star - theta) <= tie:
            ties += 1
        elif star > theta:
            exceed += 1
    return exceed / n_draws, (exceed + ties) / n_draws


def identify_reference(grid, values, p: int, n_draws: int, d_max: int, seed: int) -> dict:
    """Spectrum, eigenfunction routine and p-value intervals for select_dimension."""
    w = trapezoid_weights(grid)
    lam = spectrum(values, w, p)
    d_max = min(d_max, lam.size, values.shape[0] - p - 1)
    return {
        "grid": grid,
        "weights": w,
        "values": values,
        "p": p,
        "eigenvalues": lam,
        "pvalues": {
            d0 + 1: bootstrap_pvalue(values, w, p, d0, n_draws, seed) for d0 in range(d_max)
        },
    }


def density_panel(days):
    """Previous-tick returns and Gaussian KDE per day; returns (grid, panel, skipped ids)."""
    step = INTERVAL_MINUTES * 60.0
    n_returns = int(round((SESSION_CLOSE - SESSION_OPEN) / step))
    taus = SESSION_OPEN + step * np.arange(n_returns + 1)
    grid = np.linspace(SUPPORT[0], SUPPORT[1], GRID_POINTS)
    curves, skipped = [], []
    for day_id, times, prices in days:
        idx = np.searchsorted(times, taus, side="right") - 1
        if idx[0] < 0:
            skipped.append(day_id)
            continue
        z = np.diff(np.log(prices[idx]))
        h = 1.06 * float(np.std(z, ddof=1)) * z.size ** (-0.2)
        u = (z[None, :] - grid[:, None]) / h
        curves.append(np.exp(-0.5 * u * u).sum(axis=1) / (z.size * h * np.sqrt(2.0 * np.pi)))
    return grid, np.array(curves), skipped


def _child_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _study_panel(seed: int, d: int, n: int, u: np.ndarray) -> np.ndarray:
    """The study's factor-model draw: AR(1) factors on cosines plus sine noise."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    cols = []
    for i in range(1, d + 1):
        a = (-1.0) ** i * (0.9 - 0.5 * i / d)
        shocks = rng.standard_normal(500 + n)
        x0 = rng.standard_normal() / np.sqrt(1.0 - a * a)
        cols.append(lfilter([1.0], [1.0, -a], shocks, zi=np.array([a * x0]))[0][500:])
    cos = np.array([np.sqrt(2.0) * np.cos(np.pi * i * u) for i in range(1, d + 1)])
    sin = np.array([np.sqrt(2.0) * np.sin(np.pi * j * u) for j in range(1, 11)])
    z = rng.standard_normal((n, 10))
    return np.column_stack(cols) @ cos + (z * 2.0 ** -np.arange(10)) @ sin


def _distance(w, basis, truth) -> float:
    overlap = (basis * w) @ truth.T
    dim = max(basis.shape[0], truth.shape[0])
    return float(np.sqrt(max(0.0, 1.0 - float(np.sum(overlap**2)) / dim)))


def study_reference(seed: int, d_values, n: int, replications: int, p: int):
    """Records (d, n, rep, d_hat, dtilde, dtilde_adaptive) of the subspace-error study."""
    u = np.linspace(0.0, 1.0, STUDY_GRID_POINTS)
    w = trapezoid_weights(u)
    records, ranks = [], []
    for di, d in enumerate(d_values):
        truth = np.array([np.sqrt(2.0) * np.cos(np.pi * i * u) for i in range(1, d + 1)])
        for rep in range(replications):
            values = _study_panel(_child_seed(seed, di, 0, rep), d, n, u)
            basis = row_basis(values, w)
            lam, vec = np.linalg.eigh(reduced_operator((values * np.sqrt(w)) @ basis.T, p))
            lam, vec = lam[::-1], vec[:, ::-1]
            d_hat = int(np.sum(lam >= 0.5 * lam[0] * float(n) ** (-0.4)))
            funcs = (basis.T @ vec[:, : max(d, d_hat)]).T / np.sqrt(w)
            adaptive = _distance(w, funcs[:d_hat], truth) if d_hat else 1.0
            records.append((d, n, rep, d_hat, _distance(w, funcs[:d], truth), adaptive))
            if rep == 0:
                ranks.append(numerical_rank(values, w))
    return records, ranks
