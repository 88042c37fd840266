import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedim import tsmodels
from curvedim.errors import (
    ConditioningError,
    DegenerateSeriesError,
    ValidationError,
)
from curvedim.grids import binary_exponent
from curvedim.tsmodels import (
    VarFit,
    _chi2_sf,
    fit_var_with_aic,
    ljung_box,
    ljung_box_from_autocorrelations,
    multivariate_portmanteau,
    var_fit_yule_walker,
    var_residuals,
    write_var_fit_json,
)
from reference import companion_spectral_radius


def simulate_var(mats, t_len, rng, burn=500):
    d = mats[0].shape[0]
    x = np.zeros((t_len + burn, d))
    for t in range(len(mats), t_len + burn):
        acc = rng.standard_normal(d)
        for k, a in enumerate(mats, start=1):
            acc += a @ x[t - k]
        x[t] = acc
    return x[burn:]


ZERO_ACF_PATTERN = np.tile([1.0, 0.0, 0.0, -1.0, 0.0, 0.0], 50)  # zero acf at lags 1, 2


class TestChi2Tail:
    def test_matches_chdtrc(self):
        from scipy.special import chdtrc  # scipy is a test-only dependency

        rng = np.random.default_rng(20)
        for dof in range(1, 201):
            top = 8 * dof + 1500
            xs = np.concatenate([np.linspace(0.0, top, 150), rng.uniform(0.0, top, 50)])
            want = chdtrc(dof, xs)
            got = np.array([_chi2_sf(float(x), dof) for x in xs])
            kept = want >= 1e-300
            np.testing.assert_allclose(got[kept], want[kept], rtol=1e-12, atol=0.0)
            assert np.all(got[~kept] < 1e-299)

    @pytest.mark.parametrize("dof", [1000, 2001, 5000, 5001])
    def test_dof_in_thousands_past_log_threshold(self, dof):
        # x/2 just above 700 puts the largest term inside the sum, not at
        # its end; var-fit reaches such dof with a wide loadings file.
        from scipy.special import chdtrc

        near = np.linspace(1400.5, 1600.0, 100)
        xs = np.concatenate([near, np.linspace(1600.0, 2 * dof + 1500, 100)])
        want = chdtrc(dof, xs)
        got = np.array([_chi2_sf(float(x), dof) for x in xs])
        assert np.all(got <= 1.0)
        kept = want >= 1e-300
        np.testing.assert_allclose(got[kept], want[kept], rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("dof", [1, 2, 3, 50, 51])
    def test_edges(self, dof):
        from scipy.special import chdtrc

        assert _chi2_sf(0.0, dof) == 1.0
        # The smallest subnormal: its half rounds to 0.0.
        assert _chi2_sf(5e-324, dof) == chdtrc(dof, 5e-324)
        assert _chi2_sf(np.inf, dof) == 0.0
        assert np.isnan(_chi2_sf(np.nan, dof))
        assert np.isnan(_chi2_sf(-1.0, dof))


class TestVarFitYuleWalker:
    def test_white_noise_coefficients_near_zero(self):
        rng = np.random.default_rng(10)
        fit = var_fit_yule_walker(rng.standard_normal((50000, 2)), 1)
        assert np.max(np.abs(fit.coefficient_matrices[0])) <= 0.03

    def test_recovers_known_var1(self):
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        rng = np.random.default_rng(12345)
        x = simulate_var([a], 100000, rng)
        fit = var_fit_yule_walker(x, 1)
        assert np.max(np.abs(fit.coefficient_matrices[0] - a)) <= 0.02

    def test_order_zero_returns_sample_covariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((500, 2))
        fit = var_fit_yule_walker(x, 0)
        assert fit.coefficient_matrices == []
        assert np.allclose(fit.innovation_covariance, x.T @ x / 500)

    def test_singular_system_raises(self):
        rng = np.random.default_rng(12)
        col = rng.standard_normal(400)
        with pytest.raises(ConditioningError):
            var_fit_yule_walker(np.column_stack([col, col]), 1)

    def test_innovation_covariance_psd(self):
        rng = np.random.default_rng(13)
        x = simulate_var([np.array([[0.4, 0.2], [-0.1, 0.3]])], 5000, rng)
        fit = var_fit_yule_walker(x, 2)
        eigs = np.linalg.eigvalsh(fit.innovation_covariance)
        assert eigs.min() >= -1e-10

    def test_fitted_var_stable_on_stationary_data(self):
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        stable = 0
        runs = 100
        for s in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(s,)))
            x = simulate_var([a], 1000, rng)
            fit = var_fit_yule_walker(x, 1)
            stable += companion_spectral_radius(fit) < 1.0
        assert stable >= 0.99 * runs


class TestAicSelect:
    A1 = np.array([[0.35, -0.15], [0.10, 0.30]])
    A2 = np.array([[0.25, 0.05], [-0.10, 0.20]])
    A3 = np.array([[-0.30, 0.10], [0.05, -0.35]])

    def test_recovers_var3_order(self):
        hits = 0
        runs = 50
        for s in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(8, s)))
            x = simulate_var([self.A1, self.A2, self.A3], 5000, rng)
            best = fit_var_with_aic(x, 5).order
            hits += best == 3
        assert hits >= 0.8 * runs

    def test_white_noise_picks_order_zero(self):
        hits = 0
        runs = 50
        for s in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(7, s)))
            best = fit_var_with_aic(rng.standard_normal((2000, 2)), 5).order
            hits += best == 0
        assert hits >= 0.8 * runs

    def test_centered_table_has_single_zero(self):
        rng = np.random.default_rng(14)
        x = simulate_var([self.A1], 3000, rng)
        fit = fit_var_with_aic(x, 4)
        best, table = fit.order, fit.aic_table
        zeros = [tau for tau, v in table.items() if v == 0.0]
        assert zeros == [best]
        assert all(v >= 0.0 for v in table.values())

    def test_invariant_under_component_relabeling(self):
        rng = np.random.default_rng(15)
        x = simulate_var([self.A1, self.A2, self.A3], 4000, rng)
        best_a = fit_var_with_aic(x, 5).order
        best_b = fit_var_with_aic(x[:, ::-1], 5).order
        assert best_a == best_b


class TestLjungBox:
    def test_zero_autocorrelations_give_zero_statistic(self):
        for q in (1, 2):
            res = ljung_box(ZERO_ACF_PATTERN, q)
            assert abs(res.statistic) < 1e-12
            assert res.pvalue == 1.0

    def test_worked_example(self):
        res = ljung_box_from_autocorrelations(np.array([0.2]), 100)
        assert abs(res.statistic - 100 * 102 * 0.04 / 99) < 1e-12
        assert abs(res.statistic - 4.1212) < 1e-3
        assert abs(res.pvalue - 0.0424) < 5e-4

    def test_series_length_must_exceed_lag_count(self):
        # n <= q would divide by n - k = 0 and report a certain rejection.
        for acfs, n in ((np.array([0.1, 0.2]), 2), (np.array([0.1]), 1)):
            with pytest.raises(ValidationError, match="n must be >= "):
                ljung_box_from_autocorrelations(acfs, n)

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            ljung_box(np.ones(100), 2)
        # One constant column among several is caught before C_0 is inverted.
        x = np.column_stack([np.random.default_rng(17).standard_normal(100), np.ones(100)])
        with pytest.raises(DegenerateSeriesError):
            multivariate_portmanteau(x, 2)

    @settings(deadline=None, max_examples=30)
    @given(
        scale=st.floats(0.1, 50.0, allow_nan=False),
        shift=st.floats(-10.0, 10.0, allow_nan=False),
        seed=st.integers(0, 1000),
    )
    def test_affine_invariance(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(200)
        a = ljung_box(x, 4).statistic
        b = ljung_box(scale * x + shift, 4).statistic
        assert abs(a - b) <= 1e-8 * (1 + abs(a))

    def test_empirical_size(self):
        rej = 0
        runs = 400
        for s in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=81, spawn_key=(s,)))
            if ljung_box(rng.standard_normal(500), 5).pvalue <= 0.05:
                rej += 1
        assert 0.03 <= rej / runs <= 0.07


class TestMultivariatePortmanteau:
    def test_univariate_reduction_matches_ljung_box(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal(300)
        lb = ljung_box(x, 5)
        mv = multivariate_portmanteau(x[:, None], 5)
        assert lb == mv

    def test_zero_covariance_pattern(self):
        # both columns live on even positions, so every lag-1 product
        # pairs an even with an odd (zero) entry
        x = np.tile([1.0, 0.0, -1.0, 0.0, 0.0, 0.0], 80)
        y = np.tile([1.0, 0.0, 1.0, 0.0, -2.0, 0.0], 80)
        res = multivariate_portmanteau(np.column_stack([x, y]), 1)
        assert abs(res.statistic) < 1e-12

    def test_singular_covariance_raises(self):
        rng = np.random.default_rng(17)
        col = rng.standard_normal(300)
        with pytest.raises(ConditioningError):
            multivariate_portmanteau(np.column_stack([col, col]), 2)

    def test_residual_dof_adjustment(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((400, 2))
        assert multivariate_portmanteau(x, 5).dof == 20
        assert multivariate_portmanteau(x, 5, fitted_order=2).dof == 12
        assert multivariate_portmanteau(x, 1, fitted_order=3).dof == 1

    def test_negative_fitted_order_rejected(self):
        x = np.random.default_rng(18).standard_normal((400, 2))
        with pytest.raises(ValidationError, match="fitted_order must be >= 0, got -1"):
            multivariate_portmanteau(x, 3, fitted_order=-1)

    def test_empirical_size(self):
        rej = 0
        runs = 400
        for s in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=82, spawn_key=(s,)))
            if multivariate_portmanteau(rng.standard_normal((1000, 2)), 3).pvalue <= 0.05:
                rej += 1
        assert 0.03 <= rej / runs <= 0.08


# A fixed VAR(1) path in three components, for the scale checks.
SCALE_SERIES = simulate_var(
    [np.array([[0.5, 0.1, 0.0], [0.0, -0.3, 0.2], [0.1, 0.0, 0.4]])],
    250,
    np.random.default_rng(31),
)


def fit_and_pvalues(series, max_order=4):
    """The AIC fit of ``series`` and the portmanteau results its diagnostics read."""
    fit = fit_var_with_aic(series, max_order)
    resid = var_residuals(series, fit)
    tests = [multivariate_portmanteau(resid, q, fitted_order=fit.order) for q in (1, 3, 5)]
    tests += [ljung_box(series[:, j], 3) for j in range(series.shape[1])]
    return fit, tests


class TestScaleOfTheSeries:
    """The fit and the tests take their moments of the series over 2^e."""

    @settings(deadline=None, max_examples=40)
    @given(k=st.integers(-500, 500))
    def test_power_of_two_scale_moves_only_the_covariance(self, k):
        base, base_tests = fit_and_pvalues(SCALE_SERIES)
        fit, tests = fit_and_pvalues(np.ldexp(SCALE_SERIES, k))
        assert fit.order == base.order
        assert [a.tobytes() for a in fit.coefficient_matrices] == [
            a.tobytes() for a in base.coefficient_matrices
        ]
        assert np.array_equal(
            fit.innovation_covariance, np.ldexp(base.innovation_covariance, 2 * k)
        )
        assert fit.aic_table == pytest.approx(base.aic_table, rel=1e-12, abs=1e-9)
        assert tests == base_tests

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_tests_hold_where_the_moments_leave_the_doubles(self, scale):
        # The raw second moments are about 1e-320 (subnormal) or 1e320 (inf).
        _, base_tests = fit_and_pvalues(SCALE_SERIES)
        scaled = SCALE_SERIES * scale
        fit = var_fit_yule_walker(SCALE_SERIES, 1)
        tests = [
            multivariate_portmanteau(var_residuals(scaled, fit), q, fitted_order=1)
            for q in (1, 3, 5)
        ] + [ljung_box(scaled[:, j], 3) for j in range(3)]
        for got, want in zip(tests, base_tests):
            assert got.dof == want.dof
            assert got.statistic == pytest.approx(want.statistic, rel=1e-9)
            assert got.pvalue == pytest.approx(want.pvalue, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_covariance_outside_the_doubles_names_the_scale(self, scale, capfd):
        scaled = SCALE_SERIES * scale
        magnitude = re.escape(f"magnitude {np.ldexp(0.5, binary_exponent(scaled)):.3g} ")
        for call in (lambda x: fit_var_with_aic(x, 4), lambda x: var_fit_yule_walker(x, 1)):
            with pytest.raises(ValidationError, match=f"{magnitude}.*rescale the series"):
                call(scaled)
        assert capfd.readouterr().err == ""  # LAPACK printed nothing


class TestVarHelpers:
    def test_residuals_of_exact_fit_are_innovations(self):
        a = np.array([[0.5, 0.0], [0.0, 0.3]])
        fit = VarFit(order=1, coefficient_matrices=[a], innovation_covariance=np.eye(2))
        rng = np.random.default_rng(19)
        x = simulate_var([a], 2000, rng)
        resid = var_residuals(x, fit)
        refit = var_fit_yule_walker(resid, 1)
        assert np.max(np.abs(refit.coefficient_matrices[0])) < 0.05

    def test_fit_with_aic_populates_table(self):
        rng = np.random.default_rng(20)
        x = simulate_var([np.array([[0.5, 0.1], [0.0, 0.3]])], 3000, rng)
        fit = fit_var_with_aic(x, 4)
        assert set(fit.aic_table) == {0, 1, 2, 3, 4}
        assert fit.aic_table[fit.order] == 0.0
        # The AIC winner is returned as fitted: the Yule-Walker fit of its order.
        yw = var_fit_yule_walker(x, fit.order)
        assert len(fit.coefficient_matrices) == len(yw.coefficient_matrices)
        for a, b in zip(fit.coefficient_matrices, yw.coefficient_matrices):
            assert np.array_equal(a, b)
        assert np.array_equal(fit.innovation_covariance, yw.innovation_covariance)

    @pytest.fixture
    def moment_lags(self, monkeypatch):
        """The max_lag of every ``_autocovariances`` call; a lag past T fails
        the test at once instead of running a loop of that length."""
        real, lags = tsmodels._autocovariances, []

        def counted(series, max_lag):
            assert max_lag <= series.shape[0], f"lag {max_lag} past T = {series.shape[0]}"
            lags.append(max_lag)
            return real(series, max_lag)

        monkeypatch.setattr(tsmodels, "_autocovariances", counted)
        return lags

    def test_order_past_series_length_rejected(self, moment_lags):
        x = np.random.default_rng(22).standard_normal((50, 2))
        with pytest.raises(ValidationError, match=r"too short for VAR\(1000000000\)"):
            var_fit_yule_walker(x, 10**9)
        with pytest.raises(ValidationError, match=r"too short for VAR\(25\)"):
            fit_var_with_aic(x, 10**9)
        assert moment_lags == [50, 50]

    def test_aic_computes_lag_moments_once(self, moment_lags):
        x = np.random.default_rng(23).standard_normal((250, 3))
        fit_var_with_aic(x, 5)
        assert moment_lags == [5]

    # The three entry points that check their series through ``_as_columns``.
    series_calls = pytest.mark.parametrize(
        "call",
        [
            lambda x: var_fit_yule_walker(x, 1),
            lambda x: fit_var_with_aic(x, 3),
            lambda x: multivariate_portmanteau(x, 3),
        ],
        ids=["yule-walker", "aic", "portmanteau"],
    )

    @series_calls
    def test_zero_column_series_rejected(self, call):
        with pytest.raises(ValidationError, match="no components"):
            call(np.empty((50, 0)))

    @pytest.mark.parametrize(
        "series, message",
        [
            (np.float64(1.0), r"1-d or 2-d \(T, d\), got 0-d"),
            (np.zeros((20, 2, 2)), r"1-d or 2-d \(T, d\), got 3-d"),
            (np.empty((0, 2)), r"no observations \(T = 0\)"),
        ],
        ids=["0-d", "3-d", "no-rows"],
    )
    @series_calls
    def test_bad_series_shape_rejected(self, call, series, message):
        with pytest.raises(ValidationError, match=message):
            call(series)

    def test_var_fit_export(self, tmp_path):
        rng = np.random.default_rng(21)
        x = simulate_var([np.array([[0.4, 0.0], [0.1, 0.2]])], 2000, rng)
        fit = fit_var_with_aic(x, 3)
        path = tmp_path / "fit.json"
        write_var_fit_json(fit, path)
        import json

        payload = json.loads(path.read_text())
        assert payload["order"] == fit.order
        assert set(payload["coefficient_matrices"]) == {
            str(k + 1) for k in range(fit.order)
        }
        assert payload["aic_table"][str(fit.order)] == 0.0

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            var_fit_yule_walker(np.zeros((10, 2)), -1)
        with pytest.raises(ValidationError):
            fit_var_with_aic(np.zeros((10, 2)), -1)
