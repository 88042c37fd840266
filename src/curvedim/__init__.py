"""Dimension identification for curve time series.

Finds the finite number of scalar components driving the serial
dependence of a sequence of curves, via eigenanalysis of an operator
built from lag autocovariances, with a bootstrap test for the number of
nonzero eigenvalues, a subspace error metric, VAR modeling of the
extracted loadings, and a tick-data-to-density front end.

Each public name loads its module on first access, so ``import
curvedim`` loads no numpy and a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    "BootstrapConfig": "dimension",
    "DimensionReport": "dimension",
    "bootstrap_test": "dimension",
    "default_epsilon": "dimension",
    "select_dimension": "dimension",
    "subspace_distance_general": "dimension",
    "threshold_estimate": "dimension",
    "EigenDecomposition": "eigen",
    "decompose": "eigen",
    "loadings": "eigen",
    "operator_eigenvalues": "eigen",
    "CurveDimError": "errors",
    "CurvePanel": "grids",
    "Grid": "grids",
    "mean_curve": "grids",
    "read_panel_csv": "grids",
    "write_panel_csv": "grids",
    "PortmanteauResult": "tsmodels",
    "VarFit": "tsmodels",
    "fit_var_with_aic": "tsmodels",
    "ljung_box": "tsmodels",
    "multivariate_portmanteau": "tsmodels",
    "var_fit_yule_walker": "tsmodels",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
