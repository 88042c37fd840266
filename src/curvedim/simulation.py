"""Desk-scale Monte Carlo studies of the dimension-identification method.

Four studies are provided: the eigenvalue-gap profile of the estimated
operator, size and power of the bootstrap rank test, subspace estimation
error against the true factor space, and the convergence-rate contrast
between nonzero- and zero-eigenvalue estimates.

The design is the paper's and is fixed: AR(1) factor scores after a
``BURN_IN`` (500) step burn-in, on cosine curves; sine noise with
weights 2^-(j-1); the 101-point grid of [0, 1] (``GRID``); and in the
rate study, AR coefficient ``RATE_AR_COEFFICIENT`` (0.5) and lag budget
``RATE_LAG_BUDGET`` (1). The stationary start, the draw order, the
burn-in and the AR(1) recursion ``ar1_paths`` are all stated here.

Every study builds one ``FactorModelSpec`` per (d, n) cell, derives one
seed per replication from (seed, indices), and draws the cell's panels
through ``generate_panels(spec, seeds)``: one AR(1) recursion runs over
the factors of as many replications as fit in ``DRAW_CHUNK_BYTES`` of
innovations, and each panel is bit-for-bit the one ``generate_panel``
draws from ``replace(spec, seed=s)`` alone. So results are reproducible
bit-for-bit, the first k replications of a run do not depend on how many
replications follow them, and the draw memory does not grow with the
replication count.

Every study returns ``(records, design)``: ``records`` is a list of dicts,
one per CSV row, whose keys are the CSV columns in order, and ``design``
holds the fixed values the study applied, for the run's manifest.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .dimension import (
    BootstrapConfig,
    _overlap_distance,
    bootstrap_test,
    default_epsilon,
    threshold_estimate,
)
from .eigen import decompose, operator_eigenvalues
from .errors import ValidationError, check_int
from .grids import CurvePanel, Grid

GRID = Grid.uniform(0.0, 1.0, 101)
# Steps drawn and discarded before an AR(1) path is returned.
BURN_IN = 500
RATE_AR_COEFFICIENT = 0.5
RATE_LAG_BUDGET = 1
EIGEN_GAP_TOP = 10  # eigenvalues recorded per eigen-gap cell
# Bytes of factor innovations ``generate_panels`` draws at once: a chunk
# holds as many panels as fit (at least one), and its draw needs about
# twice this while the recursion runs, whatever the replication count.
DRAW_CHUNK_BYTES = 1 << 20


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


def default_ar_coefficients(d: int) -> tuple[float, ...]:
    """Alternating-sign coefficients (-1)^i (0.9 - 0.5 i / d), i = 1..d."""
    return tuple((-1.0) ** i * (0.9 - 0.5 * i / d) for i in range(1, d + 1))


def factor_curves(grid: Grid, d: int) -> np.ndarray:
    """Orthonormal cosine factor curves sqrt(2) cos(pi i u), i = 1..d."""
    u = grid.points
    return np.array([np.sqrt(2.0) * np.cos(np.pi * i * u) for i in range(1, d + 1)])


def noise_curves(grid: Grid, count: int) -> np.ndarray:
    """Orthonormal sine noise curves sqrt(2) sin(pi j u), j = 1..count."""
    u = grid.points
    return np.array([np.sqrt(2.0) * np.sin(np.pi * j * u) for j in range(1, count + 1)])


def _child_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class FactorModelSpec:
    """Curve model: AR(1) factor paths on cosine curves plus sine noise.

    Each curve is sum_i xi_ti * sqrt(2) cos(pi i u) plus
    sum_j w_j Z_tj * sqrt(2) sin(pi j u), j = 1..noise_terms, with iid
    standard normal Z and the fixed weights w_j = 2^-(j-1). The factor
    scores xi are stationary AR(1) paths from ``ar1_paths``: each starts
    from its stationary law and runs ``BURN_IN`` (500) steps before its
    first sample.
    """

    d: int
    n: int
    grid: Grid = GRID
    ar_coefficients: tuple[float, ...] | None = None
    noise_terms: int = 10
    seed: int = 0

    def __post_init__(self):
        check_int("d", self.d, 1)
        check_int("n", self.n, 2)
        check_int("noise_terms", self.noise_terms, 0)
        check_int("seed", self.seed, 0)  # SeedSequence takes non-negative entropy only
        coeffs = self.ar_coefficients
        if coeffs is None:
            coeffs = default_ar_coefficients(self.d)
        coeffs = tuple(float(a) for a in coeffs)
        if len(coeffs) != self.d:
            raise ValidationError("need one AR coefficient per factor")
        if not all(math.isfinite(a) for a in coeffs):
            raise ValidationError(f"AR coefficients must be finite, got {coeffs}")
        if any(abs(a) >= 1.0 for a in coeffs):
            raise ValidationError("all AR coefficients must satisfy |a| < 1")
        object.__setattr__(self, "ar_coefficients", coeffs)


def generate_panel(spec: FactorModelSpec) -> CurvePanel:
    """Draw one panel of n curves from the factor model."""
    return next(generate_panels(spec, [spec.seed]))


def generate_panels(spec: FactorModelSpec, seeds: Iterable[int]) -> Iterator[CurvePanel]:
    """The panel of ``replace(spec, seed=s)`` for each seed, in order.

    Each seed gets its own generator, which draws every factor's
    BURN_IN + n innovations and then its stationary start, factor by
    factor, and the panel's noise only when the panel is built. One
    ``ar1_paths`` recursion runs over all factors of a chunk of
    seeds whose innovations fit in ``DRAW_CHUNK_BYTES``. Every seed is
    checked as ``FactorModelSpec`` checks its own before anything is drawn.
    """
    seeds = list(seeds)
    for s in seeds:
        check_int("seed", s, 0)
    d, n, grid, noise_terms = spec.d, spec.n, spec.grid, spec.noise_terms
    coefficients = np.array(spec.ar_coefficients)
    curves = factor_curves(grid, d)
    weights = np.array([2.0 ** -(j - 1) for j in range(1, noise_terms + 1)])
    noise = noise_curves(grid, noise_terms)
    steps = BURN_IN + n
    per_chunk = max(1, DRAW_CHUNK_BYTES // (8 * d * steps))
    for lo in range(0, len(seeds), per_chunk):
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=s))
            for s in seeds[lo : lo + per_chunk]
        ]
        # Row i * d + j: factor j of panel i, its innovations then its start.
        draws = np.empty((len(rngs), d, steps + 1))
        for rng, out in zip(rngs, draws):
            rng.standard_normal(out=out)
        draws = draws.reshape(-1, steps + 1)
        a = np.tile(coefficients, len(rngs))
        paths = ar1_paths(a, draws[:, :steps].T, draws[:, steps] / np.sqrt(1.0 - a * a))
        del draws
        for i, rng in enumerate(rngs):
            values = np.ascontiguousarray(paths[:, i * d : (i + 1) * d]) @ curves
            if noise_terms:
                z = rng.standard_normal((n, noise_terms))
                values = values + (z * weights) @ noise
            values.setflags(write=False)  # fresh, so CurvePanel keeps it uncopied
            yield CurvePanel(grid=grid, values=values)


def _check_study(replications: int, seed: int) -> None:
    check_int("replications", replications, 1)
    check_int("seed", seed, 0)  # SeedSequence takes non-negative entropy only


def eigen_gap_study(
    d_values,
    n_values,
    replications: int,
    p: int = 5,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Mean of the ``EIGEN_GAP_TOP`` largest eigenvalues per (d, n) cell:
    records ``d, n, eigenvalue_1..eigenvalue_10``."""
    _check_study(replications, seed)
    records: list[dict] = []
    for di, d in enumerate(d_values):
        for ni, n in enumerate(n_values):
            rows = np.zeros((replications, EIGEN_GAP_TOP))
            spec = FactorModelSpec(d=d, n=n)
            seeds = [_child_seed(seed, di, ni, rep) for rep in range(replications)]
            for rep, panel in enumerate(generate_panels(spec, seeds)):
                lam = operator_eigenvalues(panel, p)
                rows[rep, : min(EIGEN_GAP_TOP, lam.size)] = lam[:EIGEN_GAP_TOP]
            means = rows.mean(axis=0).tolist()
            records.append(
                {"d": d, "n": n} | {f"eigenvalue_{j + 1}": v for j, v in enumerate(means)}
            )
    return records, {}


def bootstrap_power_study(
    d: int,
    n_values,
    replications: int,
    n_draws: int = 200,
    p: int = 5,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """P-values of the hypotheses on eigenvalue ranks d and d+1: records
    ``d, n, tested_rank, replication, p_value``."""
    _check_study(replications, seed)
    records: list[dict] = []
    for ni, n in enumerate(n_values):
        spec = FactorModelSpec(d=d, n=n)
        for hi, d0 in enumerate((d - 1, d)):
            seeds = [_child_seed(seed, ni, hi, rep, 0) for rep in range(replications)]
            for rep, panel in enumerate(generate_panels(spec, seeds)):
                cfg = BootstrapConfig(n_draws=n_draws, seed=_child_seed(seed, ni, hi, rep, 1))
                [pvalue] = bootstrap_test(decompose(panel, p), [d0], cfg)
                records.append(
                    {"d": d, "n": n, "tested_rank": d0 + 1, "replication": rep,
                     "p_value": pvalue}
                )
    return records, {}


def subspace_error_study(
    d_values,
    n_values,
    replications: int,
    p: int = 5,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Distance of the estimated dynamic space from the true factor span:
    records ``d, n, replication, d_hat, dtilde, dtilde_adaptive``.

    ``dtilde`` uses the first d estimated eigenfunctions (the
    estimation-error measure, comparable across d), and
    ``dtilde_adaptive`` uses the threshold-rule dimension estimate
    ``d_hat``; an estimate of dimension 0 is at distance 1. Both bases
    are quadrature-orthonormal as they stand (``decompose`` eigenfunctions,
    and the cosine curves on ``GRID``), so neither is
    re-orthonormalised.
    """
    _check_study(replications, seed)
    records: list[dict] = []
    for di, d in enumerate(d_values):
        truth = factor_curves(GRID, d)
        for ni, n in enumerate(n_values):
            spec = FactorModelSpec(d=d, n=n)
            seeds = [_child_seed(seed, di, ni, rep) for rep in range(replications)]
            for rep, panel in enumerate(generate_panels(spec, seeds)):
                dec = decompose(panel, p)
                lam = dec.eigenvalues
                d_hat = threshold_estimate(lam, default_epsilon(lam, n))
                records.append(
                    {
                        "d": d,
                        "n": n,
                        "replication": rep,
                        "d_hat": d_hat,
                        "dtilde": _overlap_distance(GRID, dec.eigenfunctions[:d], truth),
                        "dtilde_adaptive": _overlap_distance(
                            GRID, dec.eigenfunctions[:d_hat], truth
                        ),
                    }
                )
    return records, {}


def reference_rate_eigenvalue(grid: Grid, ar_coefficient: float) -> float:
    """Quadrature value of the single nonzero population eigenvalue.

    The lag-1 autocovariance kernel of the single-factor model is
    gamma(1) phi(u) phi(v) with gamma(1) = a / (1 - a^2). It has rank
    one, so the operator it composes with its adjoint on the grid has
    the one nonzero eigenvalue gamma(1)^2 (phi' W phi)^2, the population
    eigenvalue the estimates converge to. On the unit-norm cosine curve
    that is gamma(1)^2 analytically; the grid value inherits only the
    quadrature bias.
    """
    a = float(ar_coefficient)
    gamma1 = a / (1.0 - a * a)
    phi = factor_curves(grid, 1)[0]
    return gamma1**2 * float(phi @ (grid.weights * phi)) ** 2


def rate_study(sample_sizes, replications: int, seed: int = 0) -> tuple[list[dict], dict]:
    """Contrast eigenvalue convergence rates on the single-factor model.

    Each replication draws an n-curve panel with one AR(1) factor
    (coefficient ``RATE_AR_COEFFICIENT``) and records the two leading
    eigenvalues of its operator at lag budget ``RATE_LAG_BUDGET``:
    theta1 estimates the nonzero eigenvalue theta_ref
    (``reference_rate_eigenvalue``), and theta2 an eigenvalue that is
    zero. Records are ``n, replication, theta1, theta2, abs_err_theta1``;
    ``design`` holds the lag budget, the AR coefficient and theta_ref,
    from quadrature and analytically.
    """
    _check_study(replications, seed)
    theta_ref = reference_rate_eigenvalue(GRID, RATE_AR_COEFFICIENT)
    gamma1 = RATE_AR_COEFFICIENT / (1.0 - RATE_AR_COEFFICIENT**2)
    records: list[dict] = []
    for ni, n in enumerate(sample_sizes):
        spec = FactorModelSpec(d=1, n=n, ar_coefficients=(RATE_AR_COEFFICIENT,))
        seeds = [_child_seed(seed, ni, rep) for rep in range(replications)]
        for rep, panel in enumerate(generate_panels(spec, seeds)):
            lam = operator_eigenvalues(panel, RATE_LAG_BUDGET)
            theta1 = float(lam[0])
            records.append(
                {
                    "n": n,
                    "replication": rep,
                    "theta1": theta1,
                    "theta2": float(lam[1]) if lam.size > 1 else 0.0,
                    "abs_err_theta1": abs(theta1 - theta_ref),
                }
            )
    design = {
        "p": RATE_LAG_BUDGET,
        "ar_coefficient": RATE_AR_COEFFICIENT,
        "reference_eigenvalue": theta_ref,
        "reference_eigenvalue_analytic": gamma1**2,
    }
    return records, design

