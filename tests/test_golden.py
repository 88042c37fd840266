"""Golden outputs on fixed seeds, pinned before numerical refactors.

``data/golden.json`` holds the outputs of one seeded ``identify`` run and
one small subspace-error study, recorded at commit 8b6a0c9.
``data/golden_density.json`` holds the dimension decisions, VAR fit and
white-noise diagnostics of one seeded ``density --identify --var-fit``
run, recorded at commit a975b36. A refactor that claims unchanged
behaviour must leave these tests passing with the files unchanged; the
files are never regenerated to follow the code.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from curvedim.cli import main
from curvedim.density import synthetic_tick_days, write_tick_manifest
from curvedim.eigen import read_loadings_csv
from curvedim.grids import read_panel_csv, write_panel_csv
from curvedim.simulation import FactorModelSpec, generate_panel, subspace_error_study

GOLDEN = Path(__file__).parent / "data" / "golden.json"
GOLDEN_DENSITY = Path(__file__).parent / "data" / "golden_density.json"

IDENTIFY_SPEC = FactorModelSpec(d=2, n=200, seed=31)
IDENTIFY_ARGS = ["--p", "3", "--B", "50", "--d-max", "3", "--seed", "7"]
STUDY_ARGS = dict(d_values=(2, 4), n_values=(100,), replications=5, p=5, seed=13)
# d_hat is 3 on these days, so the multivariate portmanteau runs with d > 1.
DENSITY_DAYS = dict(n_days=80, seed=4, ticks_per_day=300)
DENSITY_ARGS = ["--identify", "--var-fit", "--B", "20", "--d-max", "4",
                "--max-order", "4", "--seed", "1"]


def identify_outputs(tmp_path) -> dict:
    panel = tmp_path / "panel.csv"
    write_panel_csv(generate_panel(IDENTIFY_SPEC), panel)
    out = tmp_path / "out"
    rc = main(["identify", "--panel", str(panel), *IDENTIFY_ARGS, "--output-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "dimension_report.json").read_text())
    funcs = read_panel_csv(out / "eigenfunctions.csv").values
    return {
        "report": report,
        "eigenfunctions": funcs.tolist(),
        "loadings": read_loadings_csv(out / "loadings.csv").tolist(),
    }


def study_outputs() -> list[dict]:
    return subspace_error_study(**STUDY_ARGS).records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def identified(tmp_path_factory):
    return identify_outputs(tmp_path_factory.mktemp("golden"))


def test_identify_decisions_exact(golden, identified):
    want, got = golden["identify"]["report"], identified["report"]
    for key in ("d_hat", "threshold_d", "epsilon", "pvalues"):
        assert got[key] == want[key], key


def test_identify_eigenvalues(golden, identified):
    want = np.array(golden["identify"]["report"]["eigenvalues"])
    got = np.array(identified["report"]["eigenvalues"])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * want[0])


@pytest.mark.parametrize("name", ["eigenfunctions", "loadings"])
def test_identify_curves(golden, identified, name):
    want = np.array(golden["identify"][name])
    got = np.array(identified[name])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


def test_subspace_error_study(golden):
    want, got = golden["study"], study_outputs()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["d"], g["n"], g["replication"], g["d_hat"]) == (
            w["d"], w["n"], w["replication"], w["d_hat"]
        )
        assert g["dtilde"] == pytest.approx(w["dtilde"], rel=0, abs=1e-10)
        assert g["dtilde_adaptive"] == pytest.approx(w["dtilde_adaptive"], rel=0, abs=1e-10)


def density_outputs(tmp_path) -> dict:
    manifest = write_tick_manifest(synthetic_tick_days(**DENSITY_DAYS), tmp_path / "ticks")
    out = tmp_path / "out"
    rc = main(["density", "--manifest", str(manifest), *DENSITY_ARGS,
               "--output-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "dimension_report.json").read_text())
    return {
        "dimension_report": {"d_hat": report["d_hat"], "pvalues": report["pvalues"]},
        "var_fit": json.loads((out / "var_fit.json").read_text()),
        "diagnostics": json.loads((out / "diagnostics.json").read_text()),
    }


def test_density_var_stage(tmp_path):
    want = json.loads(GOLDEN_DENSITY.read_text())
    got = density_outputs(tmp_path)
    assert got["dimension_report"] == want["dimension_report"]
    assert got["var_fit"]["order"] == want["var_fit"]["order"]
    assert {q: r["dof"] for q, r in got["diagnostics"]["portmanteau"].items()} == {
        q: r["dof"] for q, r in want["diagnostics"]["portmanteau"].items()
    }

    def close(g, w):
        assert g.keys() == w.keys()
        for key in w:
            np.testing.assert_allclose(np.array(g[key]), np.array(w[key]), rtol=1e-10)

    fit_g, fit_w = got["var_fit"], want["var_fit"]
    close(fit_g["aic_table"], fit_w["aic_table"])
    close(fit_g["coefficient_matrices"], fit_w["coefficient_matrices"])
    np.testing.assert_allclose(
        fit_g["innovation_covariance"], fit_w["innovation_covariance"], rtol=1e-10
    )
    diag_g, diag_w = got["diagnostics"], want["diagnostics"]
    assert diag_g["ljung_box"].keys() == diag_w["ljung_box"].keys()
    for comp, w in diag_w["ljung_box"].items():
        close(diag_g["ljung_box"][comp], w)
    assert diag_g["portmanteau"].keys() == diag_w["portmanteau"].keys()
    for q, w in diag_w["portmanteau"].items():
        g = diag_g["portmanteau"][q]
        for key in ("statistic", "pvalue"):
            np.testing.assert_allclose(g[key], w[key], rtol=1e-10)
