from dataclasses import replace

import numpy as np
import pytest

from curvedim.eigen import operator_eigenvalues
from curvedim.errors import ValidationError
from curvedim.grids import Grid
from curvedim.simulation import (
    RATE_AR_COEFFICIENT,
    FactorModelSpec,
    bootstrap_power_study,
    default_ar_coefficients,
    default_grid,
    eigen_gap_study,
    factor_curves,
    generate_panel,
    noise_curves,
    rate_study,
    reference_rate_eigenvalue,
    subspace_error_study,
    write_eigen_gap_csv,
    write_rate_study_csv,
)
from reference import rate_regression_slopes


class TestFactorModelSpec:
    def test_default_coefficients_for_two_factors(self):
        assert default_ar_coefficients(2) == (-0.65, 0.4)

    def test_default_coefficients_alternate_signs(self):
        coeffs = default_ar_coefficients(6)
        assert len(coeffs) == 6
        assert all(np.sign(c) == (-1) ** (i + 1) for i, c in enumerate(coeffs))
        assert all(abs(c) < 1 for c in coeffs)

    def test_default_noise_weights_halve(self):
        # The noise is sum_j w_j Z_tj sqrt(2) sin(pi j u), j = 1..10: its
        # coordinates on the sine curves have standard deviations 2^-(j-1).
        spec = FactorModelSpec(d=1, n=20000, seed=5)
        noise = generate_panel(spec).values - generate_panel(replace(spec, noise_terms=0)).values
        coords = noise @ np.linalg.pinv(noise_curves(spec.grid, 10))
        assert np.allclose(coords.std(axis=0) / 2.0 ** -np.arange(10), 1.0, atol=0.05)

    def test_rejects_explosive_coefficient(self):
        with pytest.raises(ValidationError):
            FactorModelSpec(d=1, n=10, ar_coefficients=(1.2,))


class TestGeneratePanel:
    def test_noiseless_single_factor_spans_cosine(self):
        spec = FactorModelSpec(d=1, n=50, seed=1, noise_terms=0)
        panel = generate_panel(spec)
        phi = factor_curves(panel.grid, 1)[0]
        for row in panel.values:
            coeff = row[0] / phi[0]
            assert np.allclose(row, coeff * phi, atol=1e-12)

    def test_factor_loading_covariance_matches_analytic_oracle(self):
        # the sine noise is not orthogonal to the cosine factors on [0,1],
        # so the loading covariance is the AR variance plus the leak of
        # each weighted noise term onto the factor
        spec = FactorModelSpec(d=2, n=10000, seed=51)
        panel = generate_panel(spec)
        tf = factor_curves(panel.grid, 2)
        nc = noise_curves(panel.grid, spec.noise_terms)
        w = panel.grid.weights
        load = (panel.values * w) @ tf.T
        centered = load - load.mean(axis=0)
        cov = centered.T @ centered / panel.n
        cross = (nc * w) @ tf.T
        wts = 2.0 ** -np.arange(spec.noise_terms)
        leak = (cross * wts[:, None]**2).T @ cross
        expected = np.diag(
            [1 / (1 - a**2) for a in spec.ar_coefficients]
        ) + leak
        rel = np.abs(np.diag(cov) - np.diag(expected)) / np.diag(expected)
        assert np.max(rel) <= 0.10
        assert abs(cov[0, 1]) <= 0.05

    def test_deterministic_given_seed(self):
        a = generate_panel(FactorModelSpec(d=2, n=40, seed=7))
        b = generate_panel(FactorModelSpec(d=2, n=40, seed=7))
        assert np.array_equal(a.values, b.values)


class TestEigenGapStudy:
    def test_noiseless_rank_one_mean_spectrum(self):
        grid = default_grid()
        rows = []
        for rep in range(10):
            spec = FactorModelSpec(d=1, n=60, grid=grid, seed=rep, noise_terms=0)
            lam = operator_eigenvalues(generate_panel(spec), 5)
            padded = np.zeros(10)
            padded[: min(10, lam.size)] = lam[:10]
            rows.append(padded)
        mean_lam = np.mean(rows, axis=0)
        assert np.sum(mean_lam > 1e-8 * mean_lam[0]) == 1

    def test_gap_and_zero_eigenvalue_shrinkage(self):
        res = eigen_gap_study([2], [100, 600], 30, p=5, seed=31)
        lam100 = res.mean_eigenvalues[(2, 100)]
        lam600 = res.mean_eigenvalues[(2, 600)]
        assert lam600[1] / lam600[2] > 3.0
        assert lam600[2] < lam100[2]

    def test_csv_layout(self, tmp_path):
        res = eigen_gap_study([2], [100], 3, p=5, seed=1)
        path = tmp_path / "gap.csv"
        write_eigen_gap_csv(res, path)
        header, row = path.read_text().splitlines()
        assert header.split(",")[:2] == ["d", "n"]
        assert len(header.split(",")) == 12  # d, n, ten eigenvalues
        assert len(row.split(",")) == 12


class TestBootstrapPowerStudy:
    def test_power_degrades_at_small_sample_size(self):
        from curvedim.dimension import BootstrapConfig, bootstrap_test
        from curvedim.eigen import decompose
        from curvedim.simulation import _child_seed

        rates = {}
        for n in (100, 600):
            rejections = 0
            for rep in range(10):
                panel = generate_panel(
                    FactorModelSpec(d=2, n=n, seed=_child_seed(515, n, rep, 0))
                )
                [pv] = bootstrap_test(
                    panel, decompose(panel, 5), [1], 5,
                    BootstrapConfig(n_draws=50, seed=_child_seed(515, n, rep, 1)),
                )
                rejections += pv <= 0.05
            rates[n] = rejections / 10
        assert rates[600] - rates[100] >= 0.4

    def test_pvalues_shape_and_range(self):
        res = bootstrap_power_study(1, [80], 4, n_draws=20, p=2, seed=3)
        for rank in (1, 2):
            pv = res.pvalues[(80, rank)]
            assert pv.shape == (4,)
            assert np.all((0 <= pv) & (pv <= 1))

    def test_first_replications_match_a_shorter_run(self):
        full = bootstrap_power_study(1, [80], 4, n_draws=20, p=2, seed=3)
        short = bootstrap_power_study(1, [80], 2, n_draws=20, p=2, seed=3)
        for key in full.pvalues:
            assert np.array_equal(full.pvalues[key][:2], short.pvalues[key])


class TestSubspaceErrorStudy:
    def test_records_complete_and_bounded(self):
        res = subspace_error_study([2], [100], 5, p=5, seed=11)
        assert len(res.records) == 5
        for r in res.records:
            assert 0.0 <= r["dtilde"] <= 1.0
            assert 0.0 <= r["dtilde_adaptive"] <= 1.0
            assert r["d_hat"] >= 0

    def test_error_shrinks_with_sample_size(self):
        res = subspace_error_study([2], [100, 600], 20, p=5, seed=12)
        med = {
            n: np.median([r["dtilde"] for r in res.records if r["n"] == n])
            for n in (100, 600)
        }
        assert med[600] < med[100]

    def test_first_replications_match_a_shorter_run(self):
        full = subspace_error_study([2, 3], [60], 5, p=3, seed=13)
        short = subspace_error_study([2, 3], [60], 3, p=3, seed=13)
        assert [r for r in full.records if r["replication"] < 3] == short.records


class TestRateStudy:
    def test_reference_eigenvalue_matches_analytic_value(self):
        grid = default_grid()
        ref = reference_rate_eigenvalue(grid, 0.5)
        gamma1 = 0.5 / (1 - 0.25)
        assert abs(ref - gamma1**2) < 1e-3  # quadrature bias only
        fine = reference_rate_eigenvalue(Grid.uniform(0.0, 1.0, 801), 0.5)
        assert abs(fine - gamma1**2) < abs(ref - gamma1**2) + 1e-12

    def test_records_and_reference_wiring(self):
        res = rate_study((100, 200), 5, seed=2)
        assert len(res.records) == 10
        assert res.theta_ref == reference_rate_eigenvalue(default_grid(), RATE_AR_COEFFICIENT)
        assert res.theta_ref_analytic == pytest.approx(4.0 / 9.0)

    def test_zero_eigenvalue_shrinks_faster(self):
        res = rate_study((100, 400, 1600), 30, seed=5)
        slope_err1, slope_theta2 = rate_regression_slopes(res)
        assert slope_theta2 < slope_err1 < 0

    def test_csv_has_row_per_replication(self, tmp_path):
        res = rate_study((100,), 4, seed=3)
        path = tmp_path / "rate.csv"
        write_rate_study_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,replication,theta1,theta2,abs_err_theta1"
        assert len(lines) == 5

    def test_first_replications_match_a_shorter_run(self):
        full = rate_study((100, 200), 5, seed=8)
        short = rate_study((100, 200), 3, seed=8)
        assert [r for r in full.records if r["replication"] < 3] == short.records
