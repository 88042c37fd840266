"""Command-line front end.

Subcommands: identify, test-dim, simulate, density, var-fit. Every command
is deterministic given its full flag set (including --seed), writes its
outputs under --output-dir, and records a manifest with the resolved
configuration. Exit codes: 0 success, 1 user/data error, 2 internal
numerical failure; errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dimension import (
    BootstrapConfig,
    bootstrap_test,
    select_dimension,
    write_dimension_report_json,
)
from .eigen import (
    EigenDecomposition,
    decompose,
    loadings,
    read_loadings_csv,
    write_curves_csv,
    write_decomposition_json,
    write_loadings_csv,
)
from .errors import CurveDimError, ValidationError, exit_code_for
from .grids import read_panel_csv, write_json, write_panel_csv
from .simulation import (
    RATE_AR_COEFFICIENT,
    RATE_LAG_BUDGET,
    RateStudySpec,
    bootstrap_power_study,
    eigen_gap_study,
    rate_study,
    subspace_error_study,
    write_bootstrap_power_csv,
    write_eigen_gap_csv,
    write_manifest,
    write_rate_study_csv,
    write_subspace_error_csv,
)
from .tsmodels import (
    VarFit,
    fit_var_with_aic,
    ljung_box,
    multivariate_portmanteau,
    var_residuals,
    write_var_fit_json,
)
from . import density
from .density import build_density_panel, read_tick_manifest, write_day_metadata_json

STUDIES = ("eigen-gap", "bootstrap-power", "subspace-error", "rate")
DIAGNOSTIC_LAGS = (1, 3, 5)


def _outdir(args) -> Path:
    """Create --output-dir. Every command first validates its flags, reads
    its inputs and computes, so a rejected command leaves no directory."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path, command: str, config: dict, seed) -> None:
    write_manifest(
        out / "manifest.json",
        {
            "artifact": {"name": "curvedim", "version": __version__},
            "command": command,
            "config": config,
            "seed": seed,
        },
    )


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise ValidationError(f"expected at least one integer, got {text!r}")
    repeated = [v for v in values if values.count(v) > 1]
    if repeated:
        raise ValidationError(f"{repeated[0]} is listed more than once in {text!r}")
    return values


def _epsilon_override(text: str) -> float | None:
    if text == "default":
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise ValidationError(
            f"--epsilon-rule must be 'default' or a positive number, got {text!r}"
        ) from exc
    if not (np.isfinite(value) and value > 0):
        raise ValidationError("--epsilon-rule value must be positive and finite")
    return value


def _select(panel, args):
    cfg = BootstrapConfig(n_draws=args.B, alpha=args.alpha, seed=args.seed)
    return select_dimension(
        panel,
        p=args.p,
        cfg=cfg,
        d_max=args.d_max,
        epsilon=_epsilon_override(args.epsilon_rule),
    )


def _identify_config(args) -> dict:
    """The manifest record of the flags ``_select`` reads."""
    return {
        "p": args.p,
        "B": args.B,
        "alpha": args.alpha,
        "d_max": args.d_max,
        "epsilon_rule": args.epsilon_rule,
    }


def _write_identify(panel, report, lam: np.ndarray, out: Path) -> None:
    """Write the report, its decomposition, eigenfunctions and loadings."""
    dec = EigenDecomposition(report.eigenvalues, report.eigenfunctions)
    write_dimension_report_json(report, out / "dimension_report.json")
    write_decomposition_json(dec, out / "decomposition.json")
    write_curves_csv(panel.grid, report.eigenfunctions, out / "eigenfunctions.csv")
    write_loadings_csv(lam, out / "loadings.csv")


def _var_fit(series: np.ndarray, max_order: int) -> tuple[VarFit, dict]:
    """The AIC-selected VAR fit and its white-noise diagnostics."""
    fit = fit_var_with_aic(series, max_order)
    diagnostics = {"ljung_box": {}, "portmanteau": {}}
    for j in range(series.shape[1]):
        col = {}
        for q in DIAGNOSTIC_LAGS:
            if series.shape[0] > q:
                col[str(q)] = float(ljung_box(series[:, j], q).pvalue)
        diagnostics["ljung_box"][f"component_{j + 1}"] = col
    resid = var_residuals(series, fit)
    for q in DIAGNOSTIC_LAGS:
        if resid.shape[0] > q:
            res = multivariate_portmanteau(resid, q, fitted_order=fit.order)
            diagnostics["portmanteau"][str(q)] = {
                "statistic": float(res.statistic),
                "dof": int(res.dof),
                "pvalue": float(res.pvalue),
            }
    return fit, diagnostics


def _write_var_fit(fit: VarFit, diagnostics: dict, out: Path) -> None:
    write_var_fit_json(fit, out / "var_fit.json")
    write_json(out / "diagnostics.json", diagnostics)


def cmd_identify(args) -> int:
    panel = read_panel_csv(args.panel)
    report = _select(panel, args)
    out = _outdir(args)
    _write_identify(panel, report, loadings(panel, report.eigenfunctions), out)
    _manifest(
        out,
        "identify",
        {"panel": str(args.panel), **_identify_config(args)},
        args.seed,
    )
    return 0


def cmd_test_dim(args) -> int:
    cfg = BootstrapConfig(n_draws=args.B, alpha=args.alpha, seed=args.seed)
    panel = read_panel_csv(args.panel)
    dec = decompose(panel, args.p)
    [pvalue] = bootstrap_test(panel, dec, [args.d0], args.p, cfg)
    payload = {
        "d0": args.d0,
        "tested_rank": args.d0 + 1,
        "p_value": pvalue,
        "observed_eigenvalue": float(dec.eigenvalues[args.d0]),
        "rejected_at_alpha": bool(pvalue <= args.alpha),
        "alpha": args.alpha,
    }
    out = _outdir(args)
    write_json(out / "test_dim.json", payload)
    _manifest(
        out,
        "test-dim",
        {"panel": str(args.panel), "d0": args.d0, "p": args.p, "B": args.B,
         "alpha": args.alpha},
        args.seed,
    )
    print(f"p-value: {pvalue}")
    return 0


def cmd_simulate(args) -> int:
    study = args.study
    config: dict = {"study": study, "p": args.p, "replications": args.replications}
    if study == "eigen-gap":
        d_values = _parse_int_list(args.d_values)
        n_values = _parse_int_list(args.n_values)
        res = eigen_gap_study(
            d_values, n_values, args.replications, p=args.p, seed=args.seed
        )
        write, name = write_eigen_gap_csv, "figure1_eigenvalues.csv"
        config.update({"d_values": d_values, "n_values": n_values})
    elif study == "bootstrap-power":
        n_values = _parse_int_list(args.n_values)
        res = bootstrap_power_study(
            args.d, n_values, args.replications, n_draws=args.B, p=args.p,
            seed=args.seed,
        )
        write, name = write_bootstrap_power_csv, "figure2_pvalues.csv"
        config.update({"d": args.d, "n_values": n_values, "B": args.B})
    elif study == "subspace-error":
        d_values = _parse_int_list(args.d_values)
        n_values = _parse_int_list(args.n_values)
        res = subspace_error_study(
            d_values, n_values, args.replications, p=args.p, seed=args.seed
        )
        write, name = write_subspace_error_csv, "figure3_dtilde.csv"
        config.update({"d_values": d_values, "n_values": n_values})
    elif study == "rate":
        spec = RateStudySpec(
            sample_sizes=tuple(_parse_int_list(args.sample_sizes)),
            replications=args.replications,
            seed=args.seed,
        )
        res = rate_study(spec)
        write, name = write_rate_study_csv, "rate_study.csv"
        config.update(
            {
                "sample_sizes": list(spec.sample_sizes),
                "p": RATE_LAG_BUDGET,
                "ar_coefficient": RATE_AR_COEFFICIENT,
                "reference_eigenvalue": res.theta_ref,
                "reference_eigenvalue_analytic": res.theta_ref_analytic,
            }
        )
    else:  # pragma: no cover - argparse choices guard this
        raise ValidationError(f"unknown study {study!r}")
    out = _outdir(args)
    write(res, out / name)
    _manifest(out, f"simulate {study}", config, args.seed)
    return 0


def cmd_density(args) -> int:
    if args.var_fit and not args.identify:
        raise ValidationError("--var-fit fits the loadings of --identify; pass both")
    days = read_tick_manifest(args.manifest)
    panel, metadata = build_density_panel(
        days, args.multiplier, skip_bad_days=args.skip_bad_days
    )
    report = _select(panel, args) if args.identify else None
    lam = var = None
    if report is not None:
        lam = loadings(panel, report.eigenfunctions)
        if args.var_fit:
            if report.d_hat == 0:
                raise ValidationError("identify found no components; nothing to fit")
            var = _var_fit(lam, args.max_order)
    out = _outdir(args)
    write_panel_csv(panel, out / "panel.csv")
    write_day_metadata_json(metadata, out / "day_metadata.json")
    if report is not None:
        _write_identify(panel, report, lam, out)
    if var is not None:
        _write_var_fit(*var, out)
    _manifest(
        out,
        "density",
        {
            "manifest": str(args.manifest),
            "interval_minutes": density.INTERVAL_MINUTES,
            "session": [density.SESSION_OPEN, density.SESSION_CLOSE],
            "support": list(density.SUPPORT),
            "multiplier": args.multiplier,
            "grid_points": density.GRID_POINTS,
            "skip_bad_days": args.skip_bad_days,
            "identify": args.identify,
            "var_fit": args.var_fit,
            **_identify_config(args),
            "max_order": args.max_order,
        },
        args.seed,
    )
    return 0


def cmd_var_fit(args) -> int:
    series = read_loadings_csv(args.loadings)
    fit, diagnostics = _var_fit(series, args.max_order)
    out = _outdir(args)
    _write_var_fit(fit, diagnostics, out)
    _manifest(
        out,
        "var-fit",
        {"loadings": str(args.loadings), "max_order": args.max_order},
        args.seed,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedim",
        description="Identify the finite dimensionality of curve time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--output-dir", default=".", help="directory for outputs")

    def add_test_flags(p):
        p.add_argument("--p", type=int, default=5, help="lag budget")
        p.add_argument("--B", type=int, default=200, help="bootstrap replicates")
        p.add_argument("--alpha", type=float, default=0.05, help="significance level")

    def add_identify_flags(p):
        add_test_flags(p)
        p.add_argument("--d-max", type=int, default=10, help="largest rank to test")
        p.add_argument(
            "--epsilon-rule",
            default="default",
            help="'default' for the scale-relative cutoff or an explicit value",
        )

    p_id = sub.add_parser("identify", help="dimension report for a panel CSV")
    p_id.add_argument("--panel", required=True)
    add_identify_flags(p_id)
    add_common(p_id)
    p_id.set_defaults(func=cmd_identify)

    p_td = sub.add_parser("test-dim", help="bootstrap test of one eigenvalue rank")
    p_td.add_argument("--panel", required=True)
    p_td.add_argument("--d0", type=int, required=True, help="hypothesized dimension")
    add_test_flags(p_td)
    add_common(p_td)
    p_td.set_defaults(func=cmd_test_dim)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.add_argument("study", choices=STUDIES)
    p_sim.add_argument("--replications", type=int, default=100)
    p_sim.add_argument("--p", type=int, default=5, help="lag budget (panel studies)")
    p_sim.add_argument("--d", type=int, default=2, help="true dimension (bootstrap-power)")
    p_sim.add_argument("--d-values", default="2,4,6")
    p_sim.add_argument("--n-values", default="100,300,600")
    p_sim.add_argument("--B", type=int, default=200, help="bootstrap replicates")
    p_sim.add_argument("--sample-sizes", default="100,200,400,800,1600")
    # Accepted and ignored: studies run sequentially, but the benchmark's
    # study-n100 command line and its tests still pass --threads 2.
    p_sim.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_den = sub.add_parser("density", help="tick manifest to density panel")
    p_den.add_argument("--manifest", required=True)
    p_den.add_argument("--multiplier", type=float, default=1.0)
    p_den.add_argument("--skip-bad-days", action="store_true")
    p_den.add_argument("--identify", action="store_true", help="chain into identify")
    p_den.add_argument("--var-fit", action="store_true", help="chain into var-fit")
    p_den.add_argument("--max-order", type=int, default=10)
    add_identify_flags(p_den)
    add_common(p_den)
    p_den.set_defaults(func=cmd_density)

    p_var = sub.add_parser("var-fit", help="fit a VAR to a loadings CSV")
    p_var.add_argument("--loadings", required=True)
    p_var.add_argument("--max-order", type=int, default=10)
    add_common(p_var)
    p_var.set_defaults(func=cmd_var_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CurveDimError as err:
        json.dump(
            {"error": {"kind": err.kind, "message": str(err)}},
            sys.stderr,
            sort_keys=True,
        )
        sys.stderr.write("\n")
        return exit_code_for(err)
    except OSError as err:
        json.dump(
            {"error": {"kind": "io", "message": str(err)}}, sys.stderr, sort_keys=True
        )
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
