"""Desk-scale Monte Carlo studies of the dimension-identification method.

Four studies are provided: the eigenvalue-gap profile of the estimated
operator, size and power of the bootstrap rank test, subspace estimation
error against the true factor space, and the convergence-rate contrast
between nonzero- and zero-eigenvalue estimates.

The design is the paper's and is fixed: AR(1) factor scores after a
``tsmodels.BURN_IN`` (500) step burn-in, on cosine curves; sine noise
with weights 2^-(j-1); the 101-point grid of [0, 1] (``default_grid``);
and in the rate study, AR coefficient ``RATE_AR_COEFFICIENT`` (0.5) and
lag budget ``RATE_LAG_BUDGET`` (1).

Every study runs its replications in order in one loop, and derives one
RNG stream per replication from (seed, indices), so results are
reproducible bit-for-bit and the first k replications of a run do not
depend on how many replications follow them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dimension import (
    BootstrapConfig,
    bootstrap_test,
    default_epsilon,
    subspace_distance_general,
    threshold_estimate,
)
from .eigen import decompose, operator_eigenvalues
from .errors import ValidationError
from .grids import CurvePanel, Grid, write_csv_rows, write_json
from .tsmodels import ar1_simulate

DEFAULT_GRID_POINTS = 101
RATE_AR_COEFFICIENT = 0.5
RATE_LAG_BUDGET = 1


def default_grid() -> Grid:
    return Grid.uniform(0.0, 1.0, DEFAULT_GRID_POINTS)


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
    scores xi are stationary AR(1) paths drawn by ``ar1_simulate``, with
    its fixed burn-in of ``tsmodels.BURN_IN`` (500) steps.
    """

    d: int
    n: int
    grid: Grid = field(default_factory=default_grid)
    ar_coefficients: tuple[float, ...] | None = None
    noise_terms: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        if self.n < 2:
            raise ValidationError("n must be >= 2")
        if self.seed < 0:  # SeedSequence takes non-negative entropy only
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        coeffs = self.ar_coefficients
        if coeffs is None:
            coeffs = default_ar_coefficients(self.d)
        coeffs = tuple(float(a) for a in coeffs)
        if len(coeffs) != self.d:
            raise ValidationError("need one AR coefficient per factor")
        if any(abs(a) >= 1.0 for a in coeffs):
            raise ValidationError("all AR coefficients must satisfy |a| < 1")
        object.__setattr__(self, "ar_coefficients", coeffs)


def generate_panel(spec: FactorModelSpec) -> CurvePanel:
    """Draw one panel of n curves from the factor model."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed))
    xi = np.column_stack([ar1_simulate(a, spec.n, rng) for a in spec.ar_coefficients])
    values = xi @ factor_curves(spec.grid, spec.d)
    if spec.noise_terms:
        z = rng.standard_normal((spec.n, spec.noise_terms))
        weights = np.array([2.0 ** -(j - 1) for j in range(1, spec.noise_terms + 1)])
        values = values + (z * weights) @ noise_curves(spec.grid, spec.noise_terms)
    return CurvePanel(grid=spec.grid, values=values)


def _check_study(replications: int, seed: int) -> None:
    if replications < 1:
        raise ValidationError("replications must be >= 1")
    if seed < 0:  # SeedSequence takes non-negative entropy only
        raise ValidationError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class EigenGapResult:
    """Mean of the 10 largest eigenvalues per (d, n) cell."""

    d_values: tuple[int, ...]
    n_values: tuple[int, ...]
    mean_eigenvalues: dict[tuple[int, int], np.ndarray]

    TOP = 10


def eigen_gap_study(
    d_values,
    n_values,
    replications: int,
    p: int = 5,
    seed: int = 0,
) -> EigenGapResult:
    _check_study(replications, seed)
    grid = default_grid()
    top = EigenGapResult.TOP
    means: dict[tuple[int, int], np.ndarray] = {}
    for di, d in enumerate(d_values):
        for ni, n in enumerate(n_values):
            if n <= p:
                raise ValidationError(f"n={n} must exceed p={p}")
            rows = np.zeros((replications, top))
            for rep in range(replications):
                spec = FactorModelSpec(
                    d=d, n=n, grid=grid, seed=_child_seed(seed, di, ni, rep)
                )
                lam = operator_eigenvalues(generate_panel(spec), p)
                rows[rep, : min(top, lam.size)] = lam[:top]
            means[(d, n)] = rows.mean(axis=0)
    return EigenGapResult(
        d_values=tuple(d_values), n_values=tuple(n_values), mean_eigenvalues=means
    )


@dataclass(frozen=True)
class BootstrapPowerResult:
    """P-value samples for the hypotheses on eigenvalue ranks d and d+1."""

    d: int
    n_values: tuple[int, ...]
    pvalues: dict[tuple[int, int], np.ndarray]  # (n, tested_rank) -> samples


def bootstrap_power_study(
    d: int,
    n_values,
    replications: int,
    n_draws: int = 200,
    p: int = 5,
    seed: int = 0,
) -> BootstrapPowerResult:
    _check_study(replications, seed)
    grid = default_grid()
    out: dict[tuple[int, int], np.ndarray] = {}
    for ni, n in enumerate(n_values):
        for hi, d0 in enumerate((d - 1, d)):
            pvalues = []
            for rep in range(replications):
                spec = FactorModelSpec(
                    d=d, n=n, grid=grid, seed=_child_seed(seed, ni, hi, rep, 0)
                )
                cfg = BootstrapConfig(
                    n_draws=n_draws,
                    alpha=0.05,
                    seed=_child_seed(seed, ni, hi, rep, 1),
                )
                panel = generate_panel(spec)
                pvalues += bootstrap_test(panel, decompose(panel, p), [d0], p, cfg)
            out[(n, d0 + 1)] = np.array(pvalues)
    return BootstrapPowerResult(d=d, n_values=tuple(n_values), pvalues=out)


@dataclass(frozen=True)
class SubspaceErrorResult:
    """Distance of the estimated dynamic space from the true factor span.

    Each record carries two distances: ``dtilde`` uses the first d
    estimated eigenfunctions (the estimation-error measure, comparable
    across d), and ``dtilde_adaptive`` uses the threshold-rule dimension
    estimate recorded in ``d_hat``.
    """

    records: list[dict]  # d, n, replication, d_hat, dtilde, dtilde_adaptive


def subspace_error_study(
    d_values,
    n_values,
    replications: int,
    p: int = 5,
    seed: int = 0,
) -> SubspaceErrorResult:
    _check_study(replications, seed)
    grid = default_grid()
    records: list[dict] = []
    for di, d in enumerate(d_values):
        truth = factor_curves(grid, d)
        for ni, n in enumerate(n_values):
            for rep in range(replications):
                spec = FactorModelSpec(
                    d=d, n=n, grid=grid, seed=_child_seed(seed, di, ni, rep)
                )
                dec = decompose(generate_panel(spec), p)
                lam = dec.eigenvalues
                d_hat = threshold_estimate(lam, default_epsilon(lam, n))
                dist = subspace_distance_general(
                    grid, dec.eigenfunctions[:d], truth
                )
                if d_hat == 0:
                    dist_adaptive = 1.0
                else:
                    dist_adaptive = subspace_distance_general(
                        grid, dec.eigenfunctions[:d_hat], truth
                    )
                records.append(
                    {
                        "d": d,
                        "n": n,
                        "replication": rep,
                        "d_hat": d_hat,
                        "dtilde": dist,
                        "dtilde_adaptive": dist_adaptive,
                    }
                )
    return SubspaceErrorResult(records=records)


def reference_rate_eigenvalue(grid: Grid, ar_coefficient: float) -> float:
    """Quadrature oracle for the single nonzero population eigenvalue.

    The lag-1 autocovariance kernel of the single-factor model is
    gamma(1) phi(u) phi(v) with gamma(1) = a / (1 - a^2); composing it
    with its adjoint on the grid and solving the quadrature-weighted
    symmetric eigenproblem gives the population eigenvalue the estimates
    converge to. Analytically this equals gamma(1)^2 times the squared
    norm of phi to the fourth power, i.e. gamma(1)^2 on the unit-norm
    cosine curve; the grid value inherits only the quadrature bias.
    """
    a = float(ar_coefficient)
    gamma1 = a / (1.0 - a * a)
    phi = factor_curves(grid, 1)[0]
    w = grid.weights
    kernel = gamma1 * np.outer(phi, phi)
    composed = (kernel * w) @ kernel.T
    root = np.sqrt(w)
    sym = composed * root[:, None] * root[None, :]
    return float(np.linalg.eigvalsh((sym + sym.T) / 2.0)[-1])


@dataclass(frozen=True)
class RateStudyResult:
    theta_ref: float
    theta_ref_analytic: float
    records: list[dict]  # n, replication, theta1, theta2


def rate_study(sample_sizes, replications: int, seed: int = 0) -> RateStudyResult:
    """Contrast eigenvalue convergence rates on the single-factor model.

    Each replication draws an n-curve panel with one AR(1) factor
    (coefficient ``RATE_AR_COEFFICIENT``) and records the two leading
    eigenvalues of its operator at lag budget ``RATE_LAG_BUDGET``:
    theta1 estimates the nonzero eigenvalue ``theta_ref``, and theta2 an
    eigenvalue that is zero.
    """
    _check_study(replications, seed)
    grid = default_grid()
    theta_ref = reference_rate_eigenvalue(grid, RATE_AR_COEFFICIENT)
    gamma1 = RATE_AR_COEFFICIENT / (1.0 - RATE_AR_COEFFICIENT**2)
    records: list[dict] = []
    for ni, n in enumerate(sample_sizes):
        for rep in range(replications):
            model = FactorModelSpec(
                d=1,
                n=n,
                grid=grid,
                ar_coefficients=(RATE_AR_COEFFICIENT,),
                seed=_child_seed(seed, ni, rep),
            )
            lam = operator_eigenvalues(generate_panel(model), RATE_LAG_BUDGET)
            records.append(
                {
                    "n": n,
                    "replication": rep,
                    "theta1": float(lam[0]),
                    "theta2": float(lam[1]) if lam.size > 1 else 0.0,
                }
            )
    return RateStudyResult(
        theta_ref=theta_ref, theta_ref_analytic=gamma1**2, records=records
    )


# CSV and manifest emission (plot-ready tidy data).

def write_eigen_gap_csv(result: EigenGapResult, path) -> None:
    cols = [f"eigenvalue_{j + 1}" for j in range(EigenGapResult.TOP)]
    means = result.mean_eigenvalues
    rows = ((d, n, *means[(d, n)]) for d in result.d_values for n in result.n_values)
    write_csv_rows(path, rows, ["d", "n", *cols])


def write_bootstrap_power_csv(result: BootstrapPowerResult, path) -> None:
    rows = (
        (result.d, n, rank, rep, pv)
        for n in result.n_values
        for rank in (result.d, result.d + 1)
        for rep, pv in enumerate(result.pvalues[(n, rank)])
    )
    write_csv_rows(path, rows, ["d", "n", "tested_rank", "replication", "p_value"])


def write_subspace_error_csv(result: SubspaceErrorResult, path) -> None:
    cols = ["d", "n", "replication", "d_hat", "dtilde", "dtilde_adaptive"]
    write_csv_rows(path, ([r[c] for c in cols] for r in result.records), cols)


def write_rate_study_csv(result: RateStudyResult, path) -> None:
    cols = ["n", "replication", "theta1", "theta2"]
    rows = ([r[c] for c in cols] + [abs(r["theta1"] - result.theta_ref)] for r in result.records)
    write_csv_rows(path, rows, [*cols, "abs_err_theta1"])


def write_manifest(path, payload: dict) -> None:
    write_json(path, payload)
