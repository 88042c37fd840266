"""Dimension identification for curve time series.

Finds the finite number of scalar components driving the serial
dependence of a sequence of curves, via eigenanalysis of an operator
built from lag autocovariances, with a bootstrap test for the number of
nonzero eigenvalues, a subspace error metric, VAR modeling of the
extracted loadings, and a tick-data-to-density front end.
"""

from .dimension import (
    BootstrapConfig,
    DimensionReport,
    bootstrap_test,
    default_epsilon,
    select_dimension,
    subspace_distance_general,
    threshold_estimate,
)
from .eigen import (
    EigenDecomposition,
    decompose,
    loadings,
    operator_eigenvalues,
)
from .errors import CurveDimError
from .grids import (
    CurvePanel,
    Grid,
    mean_curve,
    read_panel_csv,
    write_panel_csv,
)
from .tsmodels import (
    PortmanteauResult,
    VarFit,
    ar1_simulate,
    fit_var_with_aic,
    ljung_box,
    multivariate_portmanteau,
    var_fit_yule_walker,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "CurveDimError",
    "CurvePanel",
    "DimensionReport",
    "EigenDecomposition",
    "Grid",
    "PortmanteauResult",
    "VarFit",
    "ar1_simulate",
    "bootstrap_test",
    "decompose",
    "default_epsilon",
    "fit_var_with_aic",
    "ljung_box",
    "loadings",
    "mean_curve",
    "multivariate_portmanteau",
    "operator_eigenvalues",
    "read_panel_csv",
    "select_dimension",
    "subspace_distance_general",
    "threshold_estimate",
    "var_fit_yule_walker",
    "write_panel_csv",
]
