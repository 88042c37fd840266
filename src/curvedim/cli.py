"""Command-line front end.

Subcommands: identify, test-dim, simulate <study>, density, var-fit. Each
parser, one per study of simulate too, holds only the flags it reads, from
the one flag table FLAGS; the study table STUDIES builds and runs each study.
Every command is deterministic given its full flag set (including --seed),
writes its outputs under --output-dir, and records in manifest.json every
flag it parsed plus the fixed design values it applied. Exit codes: 0
success, 1 user/data error (reported as JSON on stderr), 2 internal
numerical failure (likewise) or a flag the command does not take. ``main``
runs BLAS on one thread unless a BLAS thread variable is set, so the bytes
do not depend on the core count. When this module is what loads numpy and
no such variable is set, numpy's bundled OpenBLAS loads on one thread, so
no worker thread starts at all. A command imports ``density``, ``tsmodels``
or ``simulation`` only when it runs them.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Variables through which a user sets the BLAS thread count; any of them set
# leaves BLAS as the user configured it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# numpy's bundled OpenBLAS reads its thread count once, when numpy loads, and
# starts a worker thread per extra core. Every command runs BLAS on one thread
# (``_one_blas_thread``), so if this import is what loads numpy, load it on
# one thread, then leave the environment as the user set it.
_PIN_AT_LOAD = "numpy" not in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS)
if _PIN_AT_LOAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
    # Loaded at start-up, not inside a command's first random draw, where
    # numpy 2 would load it lazily (about 40 ms).
    import numpy.random
finally:
    if _PIN_AT_LOAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

from . import __version__
from .dimension import (
    BootstrapConfig,
    bootstrap_test,
    select_dimension,
    write_dimension_report_json,
)
from .eigen import (
    decompose,
    read_loadings_csv,
    write_decomposition_json,
    write_loadings_csv,
)
from .errors import CurveDimError, ValidationError, check_int, exit_code_for
from .grids import read_panel_csv, write_csv_rows, write_curves_csv, write_json, write_panel_csv

if TYPE_CHECKING:
    from .tsmodels import VarFit

DIAGNOSTIC_LAGS = (1, 3, 5)
# Parsed values that are not configuration: the subcommand and its handler,
# where outputs go, the seed (recorded on its own) and the ignored --threads.
NOT_CONFIG = {"command", "func", "output_dir", "seed", "threads"}


def _outdir(args) -> Path:
    """Create --output-dir. Every command first validates its flags, reads
    its inputs and computes, so a rejected command leaves no directory."""
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path, args, **fixed) -> None:
    """Write manifest.json: the command, its seed, and as ``config`` every
    other flag the command parsed plus the ``fixed`` design values it applied."""
    config = {k: v for k, v in vars(args).items() if k not in NOT_CONFIG}
    write_json(
        out / "manifest.json",
        {
            "artifact": {"name": "curvedim", "version": __version__},
            "command": " ".join(filter(None, (args.command, config.get("study")))),
            "config": config | fixed,
            "seed": args.seed,
        },
    )


def _int_list(text: str) -> list[int]:
    """Comma-separated distinct integers, the argparse type of list flags. Its
    ``ValidationError`` passes through argparse to ``main``'s JSON report."""
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


def _seed(text: str) -> int:
    """The argparse type of --seed; its ``ValidationError`` reaches ``main``."""
    return check_int("seed", int(text), 0)


class _FlagBeforeStudy(argparse.Action):
    """Rejects a study flag placed before the study name, where argparse
    would otherwise read its value as the study."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(
            None,
            f"{option_string} comes before the study name; study flags follow it, "
            f"as in 'curvedim simulate rate {option_string} ...'",
        )


def _bootstrap(args) -> BootstrapConfig:
    return BootstrapConfig(n_draws=args.B, alpha=args.alpha, seed=args.seed)


def _select(panel, args):
    return select_dimension(panel, p=args.p, cfg=_bootstrap(args), d_max=args.d_max)


def _write_identify(panel, report, out: Path) -> None:
    """Write the report, its decomposition, eigenfunctions and loadings."""
    write_dimension_report_json(report, out / "dimension_report.json")
    write_decomposition_json(report.eigenvalues, report.d_hat, out / "decomposition.json")
    write_curves_csv(panel.grid, report.eigenfunctions, out / "eigenfunctions.csv")
    write_loadings_csv(report.loadings, out / "loadings.csv")


def _var_fit(series: np.ndarray, max_order: int) -> tuple[VarFit, dict]:
    """The AIC-selected VAR fit and its white-noise diagnostics."""
    from .tsmodels import fit_var_with_aic, ljung_box, multivariate_portmanteau, var_residuals

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
    from .tsmodels import write_var_fit_json

    write_var_fit_json(fit, out / "var_fit.json")
    write_json(out / "diagnostics.json", diagnostics)


def cmd_identify(args) -> int:
    panel = read_panel_csv(args.panel)
    report = _select(panel, args)
    out = _outdir(args)
    _write_identify(panel, report, out)
    _manifest(out, args)
    return 0


def cmd_test_dim(args) -> int:
    cfg = _bootstrap(args)
    panel = read_panel_csv(args.panel)
    dec = decompose(panel, args.p)
    [pvalue] = bootstrap_test(dec, [args.d0], cfg)
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
    _manifest(out, args)
    print(f"p-value: {pvalue}")
    return 0


def cmd_simulate(args) -> int:
    from . import simulation

    csv, _, run = STUDIES[args.study]
    records, design = run(simulation, args)
    out = _outdir(args)
    write_csv_rows(out / csv, (r.values() for r in records), list(records[0]))
    _manifest(out, args, **design)
    return 0


def cmd_density(args) -> int:
    from .density import DESIGN, build_density_panel, read_tick_manifest, write_day_metadata_json

    if args.var_fit and not args.identify:
        raise ValidationError("--var-fit fits the loadings of --identify; pass both")
    days = read_tick_manifest(args.manifest)
    panel, metadata = build_density_panel(
        days, args.multiplier, skip_bad_days=args.skip_bad_days
    )
    report = _select(panel, args) if args.identify else None
    var = None
    if args.var_fit:
        if report.d_hat == 0:
            raise ValidationError("identify found no components; nothing to fit")
        var = _var_fit(report.loadings, args.max_order)
    out = _outdir(args)
    write_panel_csv(panel, out / "panel.csv")
    write_day_metadata_json(metadata, out / "day_metadata.json")
    if report is not None:
        _write_identify(panel, report, out)
    if var is not None:
        _write_var_fit(*var, out)
    _manifest(out, args, **DESIGN)
    return 0


def cmd_var_fit(args) -> int:
    series = read_loadings_csv(args.loadings)
    fit, diagnostics = _var_fit(series, args.max_order)
    out = _outdir(args)
    _write_var_fit(fit, diagnostics, out)
    _manifest(out, args)
    return 0


# Every flag's add_argument keyword arguments; each parser adds the flags it reads.
FLAGS = {
    "--panel": dict(required=True),
    "--d0": dict(type=int, required=True, help="hypothesized dimension"),
    "--manifest": dict(required=True),
    "--multiplier": dict(type=float, default=1.0),
    "--skip-bad-days": dict(action="store_true"),
    "--identify": dict(action="store_true", help="chain into identify"),
    "--var-fit": dict(action="store_true", help="chain into var-fit"),
    "--loadings": dict(required=True),
    "--max-order": dict(type=int, default=10),
    "--replications": dict(type=int, default=100),
    "--p": dict(type=int, default=5, help="lag budget"),
    "--d": dict(type=int, default=2, help="true dimension"),
    "--d-values": dict(type=_int_list, default="2,4,6"),
    "--n-values": dict(type=_int_list, default="100,300,600"),
    "--B": dict(type=int, default=200, help="bootstrap replicates"),
    "--alpha": dict(type=float, default=0.05, help="significance level"),
    "--d-max": dict(type=int, default=10, help="largest rank to test"),
    "--sample-sizes": dict(type=_int_list, default="100,200,400,800,1600"),
    # Accepted and ignored: studies run sequentially, but the benchmark's
    # study-n100 command line and its tests still pass --threads 2.
    "--threads": dict(type=int, help=argparse.SUPPRESS),
    "--seed": dict(type=_seed, default=0, help="RNG seed"),
    "--output-dir": dict(default=".", help="directory for outputs"),
}
TEST_FLAGS = ("--p", "--B", "--alpha")
COMMON_FLAGS = ("--seed", "--output-dir")

# Each simulate study: its CSV, the flags it reads besides --replications,
# --seed and --output-dir, and its run on the simulation module and the parsed flags.
STUDIES = {
    "eigen-gap": (
        "figure1_eigenvalues.csv", ("--p", "--d-values", "--n-values"),
        lambda sim, a: sim.eigen_gap_study(
            a.d_values, a.n_values, a.replications, p=a.p, seed=a.seed
        ),
    ),
    "bootstrap-power": (
        "figure2_pvalues.csv", ("--p", "--d", "--n-values", "--B"),
        lambda sim, a: sim.bootstrap_power_study(
            a.d, a.n_values, a.replications, n_draws=a.B, p=a.p, seed=a.seed
        ),
    ),
    "subspace-error": (
        "figure3_dtilde.csv", ("--p", "--d-values", "--n-values", "--threads"),
        lambda sim, a: sim.subspace_error_study(
            a.d_values, a.n_values, a.replications, p=a.p, seed=a.seed
        ),
    ),
    "rate": (
        "rate_study.csv", ("--sample-sizes",),
        lambda sim, a: sim.rate_study(a.sample_sizes, a.replications, seed=a.seed),
    ),
}


def _add_parser(sub, name: str, *flags: str, **kwargs) -> argparse.ArgumentParser:
    """Sub-parser ``name`` (``kwargs`` go to ``add_parser``) holding ``flags``."""
    parser = sub.add_parser(name, **kwargs)
    for flag in flags:
        parser.add_argument(flag, **FLAGS[flag])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedim",
        description="Identify the finite dimensionality of curve time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_parser(sub, "identify", "--panel", *TEST_FLAGS, "--d-max", *COMMON_FLAGS,
                help="dimension report for a panel CSV").set_defaults(func=cmd_identify)
    _add_parser(sub, "test-dim", "--panel", "--d0", *TEST_FLAGS, *COMMON_FLAGS,
                help="bootstrap test of one eigenvalue rank").set_defaults(func=cmd_test_dim)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_sim.set_defaults(func=cmd_simulate)
    studies = p_sim.add_subparsers(dest="study", required=True)
    for study, (_, flags, _) in STUDIES.items():
        _add_parser(studies, study, "--replications", *flags, *COMMON_FLAGS)
    read = (flag for _, flags, _ in STUDIES.values() for flag in flags)
    p_sim.add_argument(*dict.fromkeys(("--replications", *COMMON_FLAGS, *read)),
                       action=_FlagBeforeStudy, default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)

    _add_parser(sub, "density", "--manifest", "--multiplier", "--skip-bad-days", "--identify",
                "--var-fit", "--max-order", *TEST_FLAGS, "--d-max", *COMMON_FLAGS,
                help="tick manifest to density panel").set_defaults(func=cmd_density)
    _add_parser(sub, "var-fit", "--loadings", "--max-order", *COMMON_FLAGS,
                help="fit a VAR to a loadings CSV").set_defaults(func=cmd_var_fit)
    return parser


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the 64-bit-integer OpenBLAS
    that numpy's wheel bundles, or None for any other BLAS build. The wheel
    names the library lib<prefix>64_-<hash>.so and its exports
    <prefix>_<function>64_."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("lib*openblas64_*"))
    try:
        prefix = libs[0].name.removeprefix("lib").partition("64_")[0]
        lib = ctypes.CDLL(str(libs[0]))
        get = getattr(lib, f"{prefix}_get_num_threads64_")
        set_ = getattr(lib, f"{prefix}_set_num_threads64_")
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run BLAS on one thread, then restore the previous count. The operators
    are at most a few hundred wide, where a second thread buys no time and
    moves the last bits of the eigenvalues with the core count."""
    blas = None if any(v in os.environ for v in BLAS_THREAD_VARS) else _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv=None) -> int:
    try:
        with _one_blas_thread():
            args = build_parser().parse_args(argv)
            return args.func(args)
    except (CurveDimError, OSError) as err:
        json.dump(
            {"error": {"kind": getattr(err, "kind", "io"), "message": str(err)}},
            sys.stderr,
            sort_keys=True,
        )
        sys.stderr.write("\n")
        return exit_code_for(err)


if __name__ == "__main__":
    sys.exit(main())
