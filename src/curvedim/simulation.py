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
as stacks of values, (K, n, m) arrays, through ``_value_stacks(spec,
seeds)``: one AR(1) recursion runs over the factors of as many
replications as fit in ``DRAW_CHUNK_BYTES`` of innovations, and each
stack holds as many panels as fit in ``DRAW_CHUNK_BYTES`` of values.
Each panel is bit-for-bit the one ``generate_panel`` draws from
``replace(spec, seed=s)`` alone. The eigen-gap, subspace-error and rate
studies hand each stack to ``eigen``'s stacked solve, whose results
are, to the bit, those of each panel solved alone. The subspace-error
study takes a stack's records at once from that solve
(``_subspace_errors``): one comparison per spectrum for d_hat, and
eigenfunctions only for the leading max(d, d_hat), which is all its
distances read. The bootstrap-power study tests one panel at a time,
through ``generate_panels``, as its replicates dominate its cost. So
results are reproducible bit-for-bit, the first k replications of a run
do not depend on how many replications follow them, and the draw memory
does not grow with the replication count.

Every study returns ``(records, design)``: ``records`` is a list of dicts,
one per CSV row, whose keys are the CSV columns in order, and ``design``
holds the fixed values the study applied, for the run's manifest.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .dimension import (
    DEFAULT_EPSILON_EXPONENT,
    DEFAULT_EPSILON_SCALE,
    BootstrapConfig,
    _overlap_distance,
    bootstrap_test,
)
from .eigen import _clamp, _in_curve_units, _solve_stack, decompose, operator_eigenvalues_stack
from .errors import ValidationError, check_int
from .grids import CurvePanel, Grid, check_finite_values

GRID = Grid.uniform(0.0, 1.0, 101)
# Steps drawn and discarded before an AR(1) path is returned.
BURN_IN = 500
RATE_AR_COEFFICIENT = 0.5
RATE_LAG_BUDGET = 1
EIGEN_GAP_TOP = 10  # eigenvalues recorded per eigen-gap cell
# Bytes of factor innovations ``_value_stacks`` draws at once, and of
# values it yields in one stack: each holds as many panels as fit (at
# least one). The draw needs about twice this while the recursion runs,
# and a stack's solve a few times this, whatever the replication count.
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
    """The panel of ``replace(spec, seed=s)`` for each seed, in order: the
    panels of ``_value_stacks``, one at a time."""
    for values in _value_stacks(spec, seeds):
        for v in values:
            yield CurvePanel(grid=spec.grid, values=v)


def _value_stacks(spec: FactorModelSpec, seeds: Iterable[int]) -> Iterator[np.ndarray]:
    """The values of the panel of ``replace(spec, seed=s)`` for each seed, in
    order, as read-only (K, n, m) stacks of consecutive panels.

    Each seed gets its own generator, which draws every factor's
    BURN_IN + n innovations and then its stationary start, factor by
    factor, and then the panel's noise. One ``ar1_paths`` recursion runs
    over all factors of a chunk of seeds whose innovations fit in
    ``DRAW_CHUNK_BYTES``, and one product turns the factors and noise of
    as many of its panels as fit in ``DRAW_CHUNK_BYTES`` of values (at
    least one) into a stack. Every seed is checked as ``FactorModelSpec``
    checks its own before anything is drawn, and every stack's values as
    ``CurvePanel`` checks a panel's.
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
    per_stack = max(1, DRAW_CHUNK_BYTES // (8 * n * len(grid)))
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
        for i in range(0, len(rngs), per_stack):
            stack = rngs[i : i + per_stack]
            factors = paths[:, i * d : (i + len(stack)) * d].reshape(n, len(stack), d)
            factors = factors.transpose(1, 0, 2)
            # One factor: a K = 1 product rounds once per entry, so a broadcast
            # multiply gives the matmul's bits at about half its cost.
            values = factors * curves if d == 1 else np.ascontiguousarray(factors) @ curves
            if noise_terms:
                z = np.empty((len(stack), n, noise_terms))
                for rng, out in zip(stack, z):
                    rng.standard_normal(out=out)
                values += (z * weights) @ noise
            check_finite_values(values)
            values.setflags(write=False)  # fresh, so CurvePanel keeps each panel uncopied
            yield values


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
            spec = FactorModelSpec(d=d, n=n)
            seeds = [_child_seed(seed, di, ni, rep) for rep in range(replications)]
            rows = np.concatenate([operator_eigenvalues_stack(values, GRID, p)[:, :EIGEN_GAP_TOP]
                                   for values in _value_stacks(spec, seeds)])
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
    ``d_hat``: the count a dimension report calls ``threshold_d``, not
    its bootstrap ``d_hat``. An estimate of dimension 0 is at distance
    1. That rule recovers d = 4 and 6 in only 47 and 5 of 100 panels at
    n = 600, so past d = 2 ``dtilde_adaptive`` mostly measures the
    rule's miss. Both bases are quadrature-orthonormal as they stand (the
    eigenfunctions ``decompose`` gives, up to sign, and the cosine curves
    on ``GRID``), so neither is re-orthonormalised.
    """
    _check_study(replications, seed)
    records: list[dict] = []
    for di, d in enumerate(d_values):
        truth = factor_curves(GRID, d)
        for ni, n in enumerate(n_values):
            spec = FactorModelSpec(d=d, n=n)
            seeds = [_child_seed(seed, di, ni, rep) for rep in range(replications)]
            stacks = (_subspace_errors(values, truth, n, p)
                      for values in _value_stacks(spec, seeds))
            for rep, (d_hat, dtilde, adaptive) in enumerate(chain.from_iterable(stacks)):
                records.append(
                    {
                        "d": d,
                        "n": n,
                        "replication": rep,
                        "d_hat": d_hat,
                        "dtilde": dtilde,
                        "dtilde_adaptive": adaptive,
                    }
                )
    return records, {}


def _subspace_errors(values: np.ndarray, truth: np.ndarray, n: int, p: int) -> list[tuple]:
    """(d_hat, dtilde, dtilde_adaptive) of each panel of a stack of study
    values, in order, against the d ``truth`` curves: the values
    ``threshold_estimate``, ``default_epsilon`` and ``_overlap_distance``
    give on each panel's ``decompose``, to the bit.

    d_hat is one comparison of each clamped spectrum with its cutoff.
    Eigenfunctions are formed for the leading max(d, d_hat) only, with no
    sign fix (the distance squares every overlap) and no loadings. The
    product q v keeps every column, as in ``decompose_stack``: numpy's
    matmul loop can round the leading columns of a narrower product
    differently (measured: one column, and 1-4 or 9-12 of 16 or more).
    """
    d = len(truth)
    exponents, lam, solved = _solve_stack(values, GRID, p, vectors=True)
    lam = _in_curve_units(_clamp(lam), exponents)
    cutoff = DEFAULT_EPSILON_SCALE * lam[:, :1] * float(n) ** (-DEFAULT_EPSILON_EXPONENT)
    d_hats = np.count_nonzero(lam >= cutoff, axis=1)
    errors = [None] * len(values)
    for at, q, _, v in solved:
        k = max(d, int(d_hats[at].max()))
        funcs = (q @ v)[:, :, :k].transpose(0, 2, 1) / np.sqrt(GRID.weights)
        for f, i in zip(funcs, at.tolist()):
            d_hat = int(d_hats[i])
            dtilde = _overlap_distance(GRID, f[:d], truth)
            adaptive = dtilde if d_hat == d else _overlap_distance(GRID, f[:d_hat], truth)
            errors[i] = (d_hat, dtilde, adaptive)
    return errors


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
        solved = (operator_eigenvalues_stack(values, GRID, RATE_LAG_BUDGET)[:, :2].tolist()
                  for values in _value_stacks(spec, seeds))
        for rep, (theta1, theta2) in enumerate(chain.from_iterable(solved)):
            records.append(
                {
                    "n": n,
                    "replication": rep,
                    "theta1": theta1,
                    "theta2": theta2,
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

