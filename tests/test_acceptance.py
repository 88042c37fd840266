"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance and
runtime budget, printing a single PASS/FAIL line. Run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np

from curvedim.cli import main as cli_main
from curvedim.density import synthetic_tick_days, write_tick_manifest
from curvedim.dimension import (
    default_epsilon,
    subspace_distance,
    subspace_distance_general,
    threshold_estimate,
)
from curvedim.eigen import operator_eigenvalues
from curvedim.grids import CurvePanel, Grid, read_panel_csv
from curvedim.simulation import (
    FactorModelSpec,
    bootstrap_power_study,
    eigen_gap_study,
    generate_panel,
    rate_study,
    subspace_error_study,
    _child_seed,
)
from curvedim.tsmodels import ljung_box, ljung_box_from_autocorrelations, multivariate_portmanteau
from reference import (
    discretized_operator,
    dual_matrix,
    eigen_dual,
    eigenfunctions_from_dual,
    gram_matrix,
    gram_schmidt,
    inner_product,
    rate_regression_slopes,
)

# Pre-registered eigenvalue-gap threshold: derivation runs of the d=2/4/6
# benchmark at n=300 put the mean gap ratio at 7.9 / 5.4 / 3.9, so 3.0
# separates signal from noise floor with margin for every d.
GAP_RATIO_THRESHOLD = 3.0


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert within, f"{name}: runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"


def test_criterion_01_duality_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_eig = 0.0
    worst_resid = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 61))
        p = int(rng.integers(1, 6))
        grid = Grid.uniform(0.0, 1.0, 101)
        # mix of pure noise panels and factor panels for nontrivial spectra
        if trial % 2 == 0:
            values = rng.standard_normal((n, 101))
        else:
            values = generate_panel(
                FactorModelSpec(d=2, n=n, grid=grid, seed=int(rng.integers(1 << 31)))
            ).values
        panel = CurvePanel(grid=grid, values=values)

        dm = dual_matrix(panel, p)
        g0 = gram_matrix(panel, 0, p)
        lam, gamma = eigen_dual(dm, g0)

        kernel_op = discretized_operator(panel, p)
        w = panel.grid.weights
        root = np.sqrt(w)
        sym = kernel_op * root[:, None] * root[None, :]
        oracle = np.sort(np.linalg.eigvalsh((sym + sym.T) / 2.0))[::-1]

        keep = np.where(oracle > 1e-8 * max(oracle[0], 1e-300))[0]
        keep = keep[keep < lam.size]
        rel = np.abs(lam[keep] - oracle[keep]) / oracle[keep]
        worst_eig = max(worst_eig, float(rel.max()))

        # eigenfunctions built from the dual vectors satisfy the
        # eigen-equation of the discretized operator
        count = min(int(np.sum(lam > 1e-8 * max(lam[0], 1e-300))), 5)
        funcs = eigenfunctions_from_dual(panel, gamma, count)
        for j in range(count):
            psi = funcs[j]
            image = kernel_op @ (w * psi)
            resid = image - lam[j] * psi
            norm = np.sqrt(np.sum(w * psi * psi))
            worst_resid = max(
                worst_resid,
                float(np.sqrt(np.sum(w * resid * resid)) / (lam[0] * norm)),
            )
    ok = worst_eig <= 1e-6 and worst_resid <= 1e-6
    _report(
        "criterion 1 (duality oracle)",
        ok,
        f"max eigenvalue rel err {worst_eig:.2e}, max eigen-equation residual {worst_resid:.2e}",
        time.time() - start,
        60.0,
    )


def test_criterion_02_metric_axioms():
    start = time.time()
    grid = Grid.uniform(0.0, 1.0, 101)
    rng = np.random.default_rng(202)

    def random_basis(dim):
        while True:
            basis, dropped = gram_schmidt(grid, rng.standard_normal((dim, 101)))
            if not dropped:
                return basis

    min_slack = np.inf
    max_identity = 0.0
    max_symmetry = 0.0
    max_reduction_gap = 0.0
    for trial in range(500):
        dim = 2 if trial % 2 == 0 else 3
        a, b, c = random_basis(dim), random_basis(dim), random_basis(dim)
        dab = subspace_distance(grid, a, b)
        dba = subspace_distance(grid, b, a)
        dac = subspace_distance(grid, a, c)
        dcb = subspace_distance(grid, c, b)
        assert dab >= 0.0 and dab <= 1.0
        max_symmetry = max(max_symmetry, abs(dab - dba))
        max_identity = max(max_identity, subspace_distance(grid, a, a))
        min_slack = min(min_slack, dac + dcb - dab)
        max_reduction_gap = max(
            max_reduction_gap, abs(subspace_distance_general(grid, a, b) - dab)
        )
    low = np.vstack([np.sqrt(2) * np.cos(np.pi * k * grid.points) for k in (1, 2)])
    high = np.vstack([np.sqrt(2) * np.cos(np.pi * k * grid.points) for k in (3, 4, 5)])
    orthogonal_val = subspace_distance_general(grid, low, high)
    ok = (
        min_slack >= -1e-10
        and max_symmetry <= 1e-10
        and max_identity <= 1e-7
        and max_reduction_gap <= 1e-12
        and abs(orthogonal_val - 1.0) <= 1e-4
    )
    _report(
        "criterion 2 (metric axioms)",
        ok,
        f"min triangle slack {min_slack:.2e}, D~=D gap {max_reduction_gap:.2e}, "
        f"orthogonal value {orthogonal_val:.6f}",
        time.time() - start,
        30.0,
    )


def test_criterion_03_convergence_rates():
    start = time.time()
    res = rate_study((100, 200, 400, 800, 1600), 500, seed=303)
    slope_nonzero, slope_zero = rate_regression_slopes(res)
    # theta_ref comes from the quadrature oracle inside rate_study, never a constant
    ok = (-0.65 <= slope_nonzero <= -0.35) and (-1.2 <= slope_zero <= -0.8)
    # scaling the zero eigenvalue by n stabilizes its distribution
    a = np.sort([r["n"] * r["theta2"] for r in res.records if r["n"] == 200])
    b = np.sort([r["n"] * r["theta2"] for r in res.records if r["n"] == 1600])
    pooled = np.sort(np.concatenate([a, b]))
    ks = float(
        np.max(
            np.abs(
                np.searchsorted(a, pooled, side="right") / a.size
                - np.searchsorted(b, pooled, side="right") / b.size
            )
        )
    )
    ok = ok and ks < 0.1
    _report(
        "criterion 3 (convergence rates)",
        ok,
        f"slope |theta1-ref| {slope_nonzero:.3f} in [-0.65,-0.35], "
        f"slope theta2 {slope_zero:.3f} in [-1.2,-0.8], theta_ref {res.theta_ref:.4f}, "
        f"scaled-distribution KS(200 vs 1600) {ks:.3f} < 0.1",
        time.time() - start,
        600.0,
    )


def test_criterion_04_eigenvalue_gap():
    start = time.time()
    res = eigen_gap_study([2, 4, 6], [300], 100, p=5, seed=404)
    ratios = {}
    for d in (2, 4, 6):
        lam = res.mean_eigenvalues[(d, 300)]
        ratios[d] = lam[d - 1] / lam[d]
    ok = all(r >= GAP_RATIO_THRESHOLD for r in ratios.values())
    detail = ", ".join(f"d={d}: {r:.2f}" for d, r in ratios.items())
    _report(
        "criterion 4 (eigenvalue gap)",
        ok,
        f"mean gap ratios {detail} vs threshold {GAP_RATIO_THRESHOLD}",
        time.time() - start,
        300.0,
    )


def test_criterion_05_bootstrap_power_and_level():
    start = time.time()
    res = bootstrap_power_study(2, [600], 50, n_draws=200, p=5, seed=505)
    reject_false_null = float(np.mean(res.pvalues[(600, 2)] <= 0.05))
    reject_true_null = float(np.mean(res.pvalues[(600, 3)] <= 0.05))
    ok = reject_false_null >= 0.9 and reject_true_null <= 0.15
    _report(
        "criterion 5 (bootstrap behavior)",
        ok,
        f"reject rate rank-2 hypothesis {reject_false_null:.2f} (need >= 0.9), "
        f"rank-3 hypothesis {reject_true_null:.2f} (need <= 0.15)",
        time.time() - start,
        900.0,
    )


def test_criterion_06_threshold_consistency():
    start = time.time()
    hits = 0
    runs = 100
    for rep in range(runs):
        spec = FactorModelSpec(d=2, n=600, seed=_child_seed(606, rep))
        lam = operator_eigenvalues(generate_panel(spec), 5)
        hits += threshold_estimate(lam, default_epsilon(lam, 600)) == 2
    ok = hits >= 95
    _report(
        "criterion 6 (threshold-rule consistency)",
        ok,
        f"recovered the true dimension in {hits}/{runs} replications (need >= 95)",
        time.time() - start,
        180.0,
    )


def test_criterion_07_subspace_error():
    start = time.time()
    res = subspace_error_study([2, 4, 6], [100, 300, 600], 100, p=5, seed=707)
    monotone = True
    med_detail = []
    for d in (2, 4, 6):
        meds = [
            np.median([r["dtilde"] for r in res.records if r["d"] == d and r["n"] == n])
            for n in (100, 300, 600)
        ]
        monotone = monotone and meds[0] > meds[1] > meds[2]
        med_detail.append(f"d={d}: " + ">".join(f"{m:.3f}" for m in meds))
    overlap = True
    for n in (100, 300, 600):
        bounds = []
        for d in (2, 4, 6):
            v = np.array(
                [r["dtilde"] for r in res.records if r["d"] == d and r["n"] == n]
            )
            bounds.append((np.quantile(v, 0.25), np.quantile(v, 0.75)))
        overlap = overlap and max(b[0] for b in bounds) <= min(b[1] for b in bounds)
    ok = monotone and overlap
    _report(
        "criterion 7 (subspace error)",
        ok,
        f"medians decrease [{'; '.join(med_detail)}], IQRs overlap at fixed n: {overlap}",
        time.time() - start,
        300.0,
    )


def test_criterion_08_diagnostics():
    start = time.time()
    runs = 1000
    lb_rej = 0
    for i in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=808, spawn_key=(0, i)))
        if ljung_box(rng.standard_normal(500), 5).pvalue <= 0.05:
            lb_rej += 1
    mv_rej = 0
    for i in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=808, spawn_key=(1, i)))
        if multivariate_portmanteau(rng.standard_normal((1000, 2)), 3).pvalue <= 0.05:
            mv_rej += 1
    lb_size = lb_rej / runs
    mv_size = mv_rej / runs
    worked = ljung_box_from_autocorrelations(np.array([0.2]), 100).statistic
    ok = (
        0.03 <= lb_size <= 0.08
        and 0.03 <= mv_size <= 0.08
        and abs(worked - 4.1212) <= 1e-3
    )
    _report(
        "criterion 8 (diagnostics size)",
        ok,
        f"scalar-test size {lb_size:.3f}, multivariate size {mv_size:.3f} "
        f"(need [0.03, 0.08]), worked statistic {worked:.4f} vs 4.1212",
        time.time() - start,
        120.0,
    )


def test_criterion_09_pipeline_end_to_end(tmp_path):
    start = time.time()
    days = synthetic_tick_days(250, seed=909)
    manifest = write_tick_manifest(days, tmp_path / "ticks")
    leading = {}
    shapes_ok = True
    for mult in (0.5, 1.0, 2.0):
        out = tmp_path / f"mult_{mult}"
        rc = cli_main(
            [
                "density",
                "--manifest", str(manifest),
                "--multiplier", str(mult),
                "--identify",
                "--var-fit",
                "--d-max", "5",
                "--B", "100",
                "--max-order", "5",
                "--seed", "909",
                "--output-dir", str(out),
            ]
        )
        shapes_ok = shapes_ok and rc == 0
        report = json.loads((out / "dimension_report.json").read_text())
        shapes_ok = shapes_ok and set(report["pvalues"]) == {"1", "2", "3", "4", "5"}
        fit = json.loads((out / "var_fit.json").read_text())
        d_hat = report["d_hat"]
        shapes_ok = shapes_ok and min(map(float, fit["aic_table"].values())) == 0.0
        for mat in fit["coefficient_matrices"].values():
            shapes_ok = shapes_ok and np.asarray(mat).shape == (d_hat, d_hat)
        diag = json.loads((out / "diagnostics.json").read_text())
        shapes_ok = shapes_ok and set(diag["ljung_box"]) == {
            f"component_{j + 1}" for j in range(d_hat)
        }
        shapes_ok = shapes_ok and all(
            set(col) == {"1", "3", "5"} for col in diag["ljung_box"].values()
        )
        funcs = read_panel_csv(out / "eigenfunctions.csv")
        leading[mult] = (funcs.grid, funcs.values[0])
    cosines = []
    mults = list(leading)
    for i in range(3):
        for j in range(i + 1, 3):
            g, f1 = leading[mults[i]]
            _, f2 = leading[mults[j]]
            cosines.append(
                abs(inner_product(g, f1, f2))
                / np.sqrt(inner_product(g, f1, f1) * inner_product(g, f2, f2))
            )
    min_cos = min(cosines)
    ok = shapes_ok and min_cos >= 0.95
    _report(
        "criterion 9 (pipeline end-to-end)",
        ok,
        f"table-shaped outputs complete: {shapes_ok}, "
        f"min leading-eigenfunction cosine across bandwidths {min_cos:.4f} (need >= 0.95)",
        time.time() - start,
        180.0,
    )


def test_criterion_10_determinism(tmp_path):
    start = time.time()
    identical = True
    # simulation CSVs
    for tag in ("a", "b"):
        cli_main(
            [
                "simulate", "rate",
                "--replications", "3",
                "--sample-sizes", "100,200",
                "--seed", "17",
                "--output-dir", str(tmp_path / f"rate_{tag}"),
            ]
        )
        cli_main(
            [
                "simulate", "eigen-gap",
                "--d-values", "2",
                "--n-values", "100",
                "--replications", "3",
                "--seed", "17",
                "--output-dir", str(tmp_path / f"gap_{tag}"),
            ]
        )
    identical &= (tmp_path / "rate_a" / "rate_study.csv").read_bytes() == (
        tmp_path / "rate_b" / "rate_study.csv"
    ).read_bytes()
    identical &= (tmp_path / "gap_a" / "figure1_eigenvalues.csv").read_bytes() == (
        tmp_path / "gap_b" / "figure1_eigenvalues.csv"
    ).read_bytes()
    # density pipeline CSVs
    days = synthetic_tick_days(10, seed=23, ticks_per_day=300)
    manifest = write_tick_manifest(days, tmp_path / "ticks")
    for tag in ("a", "b"):
        cli_main(
            [
                "density",
                "--manifest", str(manifest),
                "--seed", "23",
                "--output-dir", str(tmp_path / f"den_{tag}"),
            ]
        )
    identical &= (tmp_path / "den_a" / "panel.csv").read_bytes() == (
        tmp_path / "den_b" / "panel.csv"
    ).read_bytes()
    _report(
        "criterion 10 (determinism)",
        bool(identical),
        "repeated runs with the same seed emit byte-identical CSVs",
        time.time() - start,
        60.0,
    )
