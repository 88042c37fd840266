"""Every count, seed and positive real the package takes goes through one
check in ``curvedim.errors``: a bool, a float or a value below the minimum
raises ``ValidationError``, never a raw ``TypeError`` or a silent answer."""

import functools

import numpy as np
import pytest

from curvedim.density import DENSITY_GRID, build_density_panel, kde_curve, silverman_bandwidth
from curvedim.dimension import (
    BootstrapConfig,
    bootstrap_test,
    default_epsilon,
    select_dimension,
    threshold_estimate,
)
from curvedim.eigen import decompose, operator_eigenvalues
from curvedim.errors import BoundsError, ValidationError
from curvedim.grids import Grid
from curvedim.simulation import (
    FactorModelSpec,
    bootstrap_power_study,
    eigen_gap_study,
    generate_panel,
    generate_panels,
    rate_study,
    subspace_error_study,
)
from curvedim.tsmodels import (
    ar1_simulate,
    fit_var_with_aic,
    multivariate_portmanteau,
    var_fit_yule_walker,
)
from fixtures import synthetic_tick_days


@functools.cache
def _panel():
    return generate_panel(FactorModelSpec(d=1, n=30, seed=0))


@functools.cache
def _series():
    return np.random.default_rng(0).standard_normal((50, 2))


# Each parameter: a call taking its value, and the smallest value it accepts.
INTEGER_PARAMETERS = {
    "BootstrapConfig.n_draws": (lambda v: BootstrapConfig(n_draws=v), 1),
    "BootstrapConfig.seed": (lambda v: BootstrapConfig(seed=v), 0),
    "decompose.p": (lambda v: decompose(_panel(), v), 1),
    "operator_eigenvalues.p": (lambda v: operator_eigenvalues(_panel(), v), 1),
    "select_dimension.d_max": (
        lambda v: select_dimension(_panel(), p=2, cfg=BootstrapConfig(n_draws=2), d_max=v), 0
    ),
    "default_epsilon.n": (lambda v: default_epsilon(np.array([2.0, 1.0]), v), 1),
    "Grid.uniform.m": (lambda v: Grid.uniform(0.0, 1.0, v), 2),
    "ar1_simulate.length": (lambda v: ar1_simulate(0.5, v, np.random.default_rng(0)), 1),
    "var_fit_yule_walker.order": (lambda v: var_fit_yule_walker(_series(), v), 0),
    "fit_var_with_aic.max_order": (lambda v: fit_var_with_aic(_series(), v), 0),
    "multivariate_portmanteau.q": (lambda v: multivariate_portmanteau(_series(), v), 1),
    "multivariate_portmanteau.fitted_order": (
        lambda v: multivariate_portmanteau(_series(), 2, fitted_order=v), 0
    ),
    "FactorModelSpec.d": (lambda v: FactorModelSpec(d=v, n=10), 1),
    "FactorModelSpec.n": (lambda v: FactorModelSpec(d=1, n=v), 2),
    "FactorModelSpec.noise_terms": (lambda v: FactorModelSpec(d=1, n=10, noise_terms=v), 0),
    "FactorModelSpec.seed": (lambda v: FactorModelSpec(d=1, n=10, seed=v), 0),
    "generate_panels.seeds": (
        lambda v: next(generate_panels(FactorModelSpec(d=1, n=10), [0, v])), 0
    ),
    "eigen_gap_study.replications": (lambda v: eigen_gap_study([1], [10], v), 1),
    "eigen_gap_study.seed": (lambda v: eigen_gap_study([1], [10], 1, seed=v), 0),
    "bootstrap_power_study.replications": (lambda v: bootstrap_power_study(1, [10], v), 1),
    "bootstrap_power_study.seed": (lambda v: bootstrap_power_study(1, [10], 1, seed=v), 0),
    "subspace_error_study.replications": (lambda v: subspace_error_study([1], [10], v), 1),
    "subspace_error_study.seed": (lambda v: subspace_error_study([1], [10], 1, seed=v), 0),
    "rate_study.replications": (lambda v: rate_study([10], v), 1),
    "rate_study.seed": (lambda v: rate_study([10], 1, seed=v), 0),
    "synthetic_tick_days.seed": (lambda v: synthetic_tick_days(1, seed=v, ticks_per_day=10), 0),
}


@pytest.mark.parametrize("kind", ["bool", "float", "below-minimum"])
@pytest.mark.parametrize("name", list(INTEGER_PARAMETERS))
def test_integer_parameter_rejects_bool_float_and_small_values(name, kind):
    call, low = INTEGER_PARAMETERS[name]
    value = {"bool": True, "float": low + 1.5, "below-minimum": low - 1}[kind]
    with pytest.raises(ValidationError, match=r"must be (an integer|>= )"):
        call(value)


def test_hypothesis_must_be_an_integer_and_in_range():
    dec = decompose(_panel(), 2)
    cfg = BootstrapConfig(n_draws=2)
    for d0 in (True, 1.5):
        with pytest.raises(ValidationError, match="d0 must be an integer"):
            bootstrap_test(dec, [0, d0], cfg)
    for d0 in (-1, 28):  # n - p = 28 bounds d0
        with pytest.raises(BoundsError):
            bootstrap_test(dec, [0, d0], cfg)


POSITIVE_PARAMETERS = {
    "threshold_estimate.epsilon": lambda v: threshold_estimate(np.array([2.0, 1.0]), v),
    "silverman_bandwidth.multiplier": lambda v: silverman_bandwidth(np.array([0.1, 0.3]), v),
    "kde_curve.bandwidth": lambda v: kde_curve(np.array([0.0, 1e-3]), v, DENSITY_GRID),
    "build_density_panel.multiplier": lambda v: build_density_panel([], v),
}


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, True])
@pytest.mark.parametrize("name", list(POSITIVE_PARAMETERS))
def test_positive_parameter_rejects_nonpositive_and_nonfinite(name, value):
    with pytest.raises(ValidationError, match="must be positive and finite"):
        POSITIVE_PARAMETERS[name](value)
