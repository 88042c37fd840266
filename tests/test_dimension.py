import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedim import dimension
from curvedim.dimension import (
    BootstrapConfig,
    _replicate_rng,
    bootstrap_test,
    default_epsilon,
    select_dimension,
    subspace_distance_general,
    threshold_estimate,
    write_dimension_report_json,
)
from curvedim.eigen import decompose, operator_eigenvalues
from curvedim.errors import BoundsError, ValidationError
from curvedim.grids import CurvePanel, Grid, mean_curve
from curvedim.simulation import (
    GRID,
    FactorModelSpec,
    _child_seed,
    factor_curves,
    generate_panel,
    generate_panels,
)
from fixtures import synthetic_tick_days
from reference import (
    bootstrap_fit,
    grid_reference_pvalue,
    grid_replicate_eigenvalues,
    gram_schmidt,
    subspace_distance,
)


def uniform_grid(m=101):
    return Grid.uniform(0.0, 1.0, m)


def leading_stays_normal(theta1, shift):
    """Whether theta1 * 2^shift is a finite normal double."""
    try:
        return math.ldexp(theta1, shift) >= sys.float_info.min
    except OverflowError:
        return False


def pvalue_at(panel, d0, p, cfg):
    """bootstrap_test of the one hypothesis d0 on the panel's own decomposition."""
    [pvalue] = bootstrap_test(decompose(panel, p), [d0], cfg)
    return pvalue


def random_orthonormal_basis(grid, dim, seed):
    rng = np.random.default_rng(seed)
    basis, dropped = gram_schmidt(grid, rng.standard_normal((dim, len(grid))))
    assert not dropped
    return basis


def t3_noise(rng, shape):
    """Student t noise on 3 degrees of freedom, scaled to sd 0.05."""
    return 0.05 / np.sqrt(3.0) * rng.standard_t(3, size=shape)


def stochastic_volatility_noise(rng, shape):
    """0.05 exp(h_t / 2) z: the log-volatility h_t of curve t is a stationary
    AR(1), coefficient 0.95 and variance 0.5, so the noise of neighbouring
    curves has similar size."""
    a, var = 0.95, 0.5
    shocks = rng.standard_normal(shape[0])
    h = np.empty(shape[0])
    h[0] = np.sqrt(var) * shocks[0]
    for t in range(1, shape[0]):
        h[t] = a * h[t - 1] + np.sqrt(var * (1.0 - a * a)) * shocks[t]
    return 0.05 * np.exp(h / 2.0)[:, None] * rng.standard_normal(shape)


class TestBootstrapTest:
    def test_single_draw_pvalue_is_binary(self):
        panel = generate_panel(FactorModelSpec(d=1, n=60, seed=0))
        pv = pvalue_at(panel, 0, 2, BootstrapConfig(n_draws=1, seed=1))
        assert pv in (0.0, 1.0)

    def test_deterministic_given_seed(self):
        panel = generate_panel(FactorModelSpec(d=1, n=80, seed=2))
        cfg = BootstrapConfig(n_draws=40, seed=9)
        assert pvalue_at(panel, 1, 2, cfg) == pvalue_at(panel, 1, 2, cfg)

    def test_rejects_strong_factor_keeps_null(self):
        panel = generate_panel(FactorModelSpec(d=1, n=300, seed=3))
        cfg = BootstrapConfig(n_draws=100, seed=4)
        assert pvalue_at(panel, 0, 5, cfg) <= 0.05
        assert pvalue_at(panel, 1, 5, cfg) > 0.05

    def test_d0_bounds(self):
        panel = generate_panel(FactorModelSpec(d=1, n=30, seed=5))
        with pytest.raises(BoundsError):
            pvalue_at(panel, 40, 2, BootstrapConfig(n_draws=5))
        # d0 == m < n - p: the spectrum has only m eigenvalues
        coarse = generate_panel(FactorModelSpec(d=1, n=30, grid=uniform_grid(11), seed=5))
        with pytest.raises(BoundsError):
            pvalue_at(coarse, 11, 2, BootstrapConfig(n_draws=5))
        with pytest.raises(ValidationError):
            select_dimension(panel, p=2, cfg=BootstrapConfig(n_draws=5), d_max=-1)

    def test_out_of_range_hypothesis_rejected_before_any_replicate(self, monkeypatch):
        # n - p = 28 bounds d0: the valid 0 listed first must not draw its
        # replicates before the 40 after it is rejected.
        panel = generate_panel(FactorModelSpec(d=1, n=30, seed=5))
        dec = decompose(panel, 2)
        built = []

        def counted(seed, replicate):
            built.append(replicate)
            return _replicate_rng(seed, replicate)

        monkeypatch.setattr(dimension, "_replicate_rng", counted)
        with pytest.raises(BoundsError):
            bootstrap_test(dec, [0, 40], BootstrapConfig(n_draws=5))
        assert built == []

    def test_pvalues_follow_hypothesis_order(self):
        panel = generate_panel(FactorModelSpec(d=2, n=150, seed=17))
        cfg = BootstrapConfig(n_draws=30, seed=11)
        dec = decompose(panel, 3)
        pvalues = bootstrap_test(dec, [2, 0, 1], cfg)
        assert pvalues == [pvalue_at(panel, d0, 3, cfg) for d0 in (2, 0, 1)]
        assert bootstrap_test(dec, [], cfg) == []

    def test_resamples_drawn_once_for_all_hypotheses(self, monkeypatch):
        # Replicate b of every hypothesis resamples the same rows, so the
        # B generators are built once per call, not once per hypothesis.
        panel = generate_panel(FactorModelSpec(d=2, n=80, seed=6))
        dec = decompose(panel, 2)
        built = []

        def counted(seed, replicate):
            built.append(replicate)
            return _replicate_rng(seed, replicate)

        monkeypatch.setattr(dimension, "_replicate_rng", counted)
        pvalues = bootstrap_test(dec, [0, 1, 2], BootstrapConfig(n_draws=7))
        assert built == list(range(7))
        assert all(type(pv) is float for pv in pvalues)

    def test_select_dimension_pvalues_match_single_tests(self):
        # select_dimension tests every hypothesis in one bootstrap_test call;
        # each p-value equals that of a call with the one hypothesis.
        panel = generate_panel(FactorModelSpec(d=2, n=150, seed=17))
        cfg = BootstrapConfig(n_draws=30, seed=11)
        report = select_dimension(panel, p=3, cfg=cfg, d_max=4)
        for d0 in range(4):
            assert report.pvalues[d0 + 1] == pvalue_at(panel, d0, 3, cfg)

    def test_span_route_pvalues_equal_grid_reference(self):
        # Replicates are solved in the span of the panel's curves; every
        # p-value must equal the grid-operator bootstrap's exactly.
        for panel_seed, boot_seed in ((41, 3), (42, 4)):
            panel = generate_panel(FactorModelSpec(d=2, n=200, seed=panel_seed))
            cfg = BootstrapConfig(n_draws=50, seed=boot_seed)
            report = select_dimension(panel, p=5, cfg=cfg, d_max=4)
            dec = decompose(panel, 5)
            grid = {d0 + 1: grid_reference_pvalue(dec, d0, cfg) for d0 in range(4)}
            assert report.pvalues == grid
            assert any(0.0 < pv < 1.0 for pv in grid.values())

    def test_every_hypothesis_below_rank_equals_grid_reference(self, monkeypatch):
        # One replicate serves every hypothesis from shared lag products;
        # each d0 up to r - 1 must get the grid bootstrap's replicate
        # eigenvalues (to roundoff) and p-value on d = 4 and d = 6 panels,
        # where fitted and resampled axes mix in every block of M_k
        # (about 0.5 s, most of it the grid reference).
        solves = []
        solve = dimension._symmetric_solve

        def recorded(a):
            solves.append(solve(a))
            return solves[-1]

        monkeypatch.setattr(dimension, "_symmetric_solve", recorded)
        cfg = BootstrapConfig(n_draws=10, seed=7)
        for d, seed in ((4, 51), (6, 52)):
            panel = generate_panel(FactorModelSpec(d=d, n=100, seed=seed))
            dec = decompose(panel, 3)
            r = len(dec.eigenfunctions)
            solves.clear()
            got = bootstrap_test(dec, range(r), cfg)
            assert got == [grid_reference_pvalue(dec, d0, cfg) for d0 in range(r)]
            assert any(0.0 < pv < 1.0 for pv in got[d:])
            # Replicate b solves all r hypotheses at once, ascending, on the
            # values over 2^exponent: times 2^(4 exponent) is the curves' units.
            thetas = np.ldexp(np.array(solves)[:, np.arange(r), r - 1 - np.arange(r)],
                              4 * panel.exponent)
            want = np.array([grid_replicate_eigenvalues(dec, d0, cfg) for d0 in range(r)]).T
            assert np.max(np.abs(thetas - want)) <= 1e-12 * dec.eigenvalues[0]

    def test_repeated_and_reordered_hypotheses_equal_single_calls(self):
        panel = generate_panel(FactorModelSpec(d=1, n=120, seed=23))
        cfg = BootstrapConfig(n_draws=40, seed=2)
        dec = decompose(panel, 4)
        got = bootstrap_test(dec, [3, 0, 3, 1], cfg)
        assert got == [bootstrap_test(dec, [d0], cfg)[0] for d0 in (3, 0, 3, 1)]
        assert got[0] == got[2]

    def test_hypothesis_zero_alone_equals_grid_reference(self):
        # d0 = 0 fits no eigenfunction: every coordinate is resampled. On
        # iid curves the hypothesis holds, so most replicates exceed the
        # observed eigenvalue.
        rng = np.random.default_rng(29)
        panel = CurvePanel(grid=uniform_grid(31), values=rng.standard_normal((80, 31)))
        dec = decompose(panel, 2)
        for seed in (3, 4):
            cfg = BootstrapConfig(n_draws=30, seed=seed)
            assert bootstrap_test(dec, [0], cfg) == [grid_reference_pvalue(dec, 0, cfg)]

    def test_zero_observed_eigenvalue_is_not_rejected(self):
        # Noise-free two-factor panel: eigenvalues 3 and 4 are zero to
        # working precision, so their p-values must not depend on roundoff.
        panel = generate_panel(FactorModelSpec(d=2, n=300, noise_terms=0, seed=0))
        for seed in (0, 1, 2):
            cfg = BootstrapConfig(seed=seed)
            assert pvalue_at(panel, 2, 5, cfg) == 1.0
            assert pvalue_at(panel, 3, 5, cfg) == 1.0
        report = select_dimension(panel, p=5, cfg=BootstrapConfig(seed=0), d_max=4)
        assert report.d_hat == 2
        assert report.pvalues[3] == report.pvalues[4] == 1.0

    def test_eigenvalue_past_numerical_rank_is_not_rejected(self):
        # The curves span two dimensions, so a replicate has no third
        # eigenvalue to compare; a nonzero observed one is roundoff.
        panel = generate_panel(FactorModelSpec(d=2, n=120, noise_terms=0, seed=4))
        dec = decompose(panel, 5)
        lam = dec.eigenvalues.copy()
        lam[2] = 1e-11 * lam[0]
        roundoff = replace(dec, eigenvalues=lam)
        assert bootstrap_test(roundoff, [2], BootstrapConfig(n_draws=20)) == [1.0]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            BootstrapConfig(n_draws=0)
        with pytest.raises(ValidationError):
            BootstrapConfig(alpha=1.5)
        with pytest.raises(ValidationError):
            BootstrapConfig(seed=-1)

    def test_factor_model_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            generate_panel(FactorModelSpec(d=1, n=10, seed=-1))

    def test_synthetic_tick_days_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            synthetic_tick_days(3, seed=-1, ticks_per_day=50)


class TestBootstrapFit:
    def test_zero_components_reproduce_mean(self):
        rng = np.random.default_rng(3)
        panel = CurvePanel(grid=uniform_grid(31), values=rng.standard_normal((10, 31)))
        fitted, residuals = bootstrap_fit(decompose(panel, 3), 0)
        assert np.allclose(fitted, mean_curve(panel)[None, :])
        assert np.allclose(fitted + residuals, panel.values)

    def test_noiseless_rank_two_exact(self):
        g = uniform_grid(101)
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((25, 2))
        basis = np.vstack(
            [np.sqrt(2) * np.cos(np.pi * g.points), np.sqrt(2) * np.cos(2 * np.pi * g.points)]
        )
        panel = CurvePanel(grid=g, values=scores @ basis)
        _, residuals = bootstrap_fit(decompose(panel, 3), 2)
        scale = np.max(np.abs(panel.values))
        assert np.max(np.abs(residuals)) <= 1e-6 * scale

    def test_residuals_orthogonal_to_eigenfunctions(self):
        rng = np.random.default_rng(15)
        panel = CurvePanel(grid=uniform_grid(51), values=rng.standard_normal((30, 51)))
        dec = decompose(panel, 3)
        _, residuals = bootstrap_fit(dec, 3)
        proj = (residuals * panel.grid.weights) @ dec.eigenfunctions[:3].T
        assert np.max(np.abs(proj)) < 1e-8


class TestThresholdEstimate:
    def test_direct_count(self):
        assert threshold_estimate(np.array([5.0, 3.0, 1e-4]), 0.1) == 2

    def test_all_zero(self):
        assert threshold_estimate(np.zeros(4), 0.5) == 0

    def test_requires_sorted(self):
        with pytest.raises(ValidationError):
            threshold_estimate(np.array([1.0, 2.0]), 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_eigenvalues(self, bad):
        # NaN compares False in the descending-order check, so it must be
        # rejected on its own rather than counted past.
        with pytest.raises(ValidationError, match="eigenvalues must be finite"):
            threshold_estimate(np.array([bad, 1.0, 0.5]), 0.7)

    @settings(deadline=None, max_examples=50)
    @given(
        eps=st.tuples(
            st.floats(1e-6, 10.0, allow_nan=False),
            st.floats(1e-6, 10.0, allow_nan=False),
        ),
        seed=st.integers(0, 1000),
    )
    def test_monotone_nonincreasing_in_epsilon(self, eps, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.exponential(1.0, size=8))[::-1]
        lo, hi = min(eps), max(eps)
        assert threshold_estimate(lam, lo) >= threshold_estimate(lam, hi)

    def test_default_epsilon_scale_relative(self):
        lam = np.array([4.0, 1.0, 0.1])
        assert np.isclose(default_epsilon(3.0 * lam, 600), 3.0 * default_epsilon(lam, 600))
        # A (K, m) stack gives each row's own cutoff, bit for bit.
        stack = np.random.default_rng(2).exponential(1.0, size=(5, 4))
        stack = -np.sort(-stack, axis=1)
        got = default_epsilon(stack, 600)
        assert got.shape == (5,)
        assert np.array_equal(got, [default_epsilon(row, 600) for row in stack])
        for bad in (np.array([]), np.empty((3, 0)), np.float64(1.0)):
            with pytest.raises(ValidationError, match="nonempty spectrum"):
                default_epsilon(bad, 600)


class TestSelectDimension:
    def test_two_factor_panel(self):
        panel = generate_panel(FactorModelSpec(d=2, n=600, seed=6))
        report = select_dimension(
            panel, p=5, cfg=BootstrapConfig(n_draws=100, seed=7), d_max=4
        )
        assert report.d_hat == 2
        assert report.threshold_d == 2
        assert set(report.pvalues) == {1, 2, 3, 4}
        assert all(0.0 <= v <= 1.0 for v in report.pvalues.values())
        assert report.epsilon_used > 0
        assert report.eigenfunctions.shape == (2, len(panel.grid))

    @pytest.mark.parametrize(
        "d, n, p",
        [pytest.param(d, n, 5, id=f"{d}-{n}") for d in (4, 6) for n in (300, 600)]
        + [pytest.param(4, 300, 1, id="4-300-p1")],
    )
    def test_bootstrap_recovers_dimension_past_two(self, d, n, p):
        # README, default_epsilon and DimensionReport say to trust the
        # bootstrap d_hat past d = 2; at p = 5 it recovered d = 4 and 6 in
        # 28 and 27 of these 30 panels at n = 600, and in 27 and 26 at
        # n = 300. README's lag-budget table puts p = 1 on the same plateau
        # as p = 5: at d = 4, n = 300, p = 1 it recovered 28 of the same
        # 30 panels.
        seeds = [_child_seed(707, d, n, rep) for rep in range(30)]
        cfg = BootstrapConfig(n_draws=200, seed=1)
        hits = sum(
            select_dimension(panel, p=p, cfg=cfg, d_max=d + 3).d_hat == d
            for panel in generate_panels(FactorModelSpec(d, n), seeds)
        )
        assert hits >= 24

    def test_bootstrap_loses_dimension_at_lag_budget_ten(self):
        # README says p = 10 leaves the plateau of p = 1 to 5. On the 30
        # panels above at d = 4, n = 300, p = 10 recovered d in 13 (27 at
        # p = 5), and 16 of its 17 misses fell below d.
        d, n = 4, 300
        seeds = [_child_seed(707, d, n, rep) for rep in range(30)]
        cfg = BootstrapConfig(n_draws=200, seed=1)
        d_hats = [
            select_dimension(panel, p=10, cfg=cfg, d_max=d + 3).d_hat
            for panel in generate_panels(FactorModelSpec(d, n), seeds)
        ]
        misses = [x for x in d_hats if x != d]
        assert len(misses) >= 10
        assert sum(x < d for x in misses) > len(misses) / 2

    @pytest.mark.parametrize("d, floor", [(2, 26), (4, 19)])
    def test_bootstrap_recovers_dimension_under_pointwise_noise(self, d, floor):
        # Noise white in time drops out of every lag-k autocovariance, k >= 1,
        # whatever its structure across the grid. Independent N(0, 0.05^2)
        # noise at each of m = 31 points makes every panel full rank (r = 31).
        # On the seed streams 1212/1313 the scan recovered d = 2 and 4 in 29
        # and 25 of 30 panels; the floors sit about 3 binomial SE below that.
        spec = FactorModelSpec(d, 300, grid=Grid.uniform(0.0, 1.0, 31))
        seeds = [_child_seed(2424, d, 300, rep) for rep in range(30)]
        cfg = BootstrapConfig(n_draws=200, seed=1)
        hits = 0
        for rep, panel in enumerate(generate_panels(spec, seeds)):
            noise = np.random.default_rng(_child_seed(2525, d, 300, rep))
            noisy = CurvePanel(
                grid=panel.grid,
                values=panel.values + 0.05 * noise.standard_normal(panel.values.shape),
            )
            hits += select_dimension(noisy, p=5, cfg=cfg, d_max=d + 3).d_hat == d
        assert hits >= floor

    @pytest.mark.parametrize("noise", [t3_noise, stochastic_volatility_noise],
                             ids=["t3", "stochastic-volatility"])
    def test_level_and_power_under_heavy_tailed_and_clustered_noise(self, noise):
        # The density curves carry estimation noise with heavy tails and
        # clustered size, and the bootstrap resamples residual rows as if
        # they were independent. Noise white in time keeps the test's level
        # and power anyway: on these 40 two-factor panels (m = 31, so every
        # panel is full rank) each law rejected "theta_3 = 0" in 2 and
        # "theta_2 = 0" in 39. The bounds sit about 3 binomial SE past that.
        # About 3 s per law on 2 vCPUs; the budget is 10 s per law.
        spec = FactorModelSpec(2, 300, grid=Grid.uniform(0.0, 1.0, 31))
        seeds = [_child_seed(77, 2, rep) for rep in range(40)]
        cfg = BootstrapConfig(n_draws=200, seed=1)
        level = power = 0
        for rep, panel in enumerate(generate_panels(spec, seeds)):
            rng = np.random.default_rng(_child_seed(78, 2, rep))
            noisy = CurvePanel(grid=panel.grid,
                               values=panel.values + noise(rng, panel.values.shape))
            on_theta2, on_theta3 = bootstrap_test(decompose(noisy, 5), [1, 2], cfg)
            power += on_theta2 <= cfg.alpha
            level += on_theta3 <= cfg.alpha
        assert level <= 6
        assert power >= 36

    def test_scan_covers_every_rank_the_bootstrap_tests(self):
        # n = 12 curves at p = 5 give n - p = 7 lag pairs, so bootstrap_test
        # accepts d0 = 0..6 and the scan reports ranks 1..7; eigenvalue 7
        # is positive, so its hypothesis is a real test.
        panel = generate_panel(FactorModelSpec(d=2, n=12, seed=3))
        cfg = BootstrapConfig(n_draws=20, seed=1)
        report = select_dimension(panel, p=5, cfg=cfg, d_max=10)
        dec = decompose(panel, 5)
        assert sorted(report.pvalues) == list(range(1, 8))
        assert report.eigenvalues[6] > 0.0
        assert report.pvalues[7] == bootstrap_test(dec, [6], cfg)[0]
        with pytest.raises(BoundsError):
            bootstrap_test(dec, [7], cfg)

    def test_report_export(self, tmp_path):
        panel = generate_panel(FactorModelSpec(d=1, n=80, seed=8))
        report = select_dimension(
            panel, p=2, cfg=BootstrapConfig(n_draws=20, seed=3), d_max=2
        )
        path = tmp_path / "report.json"
        write_dimension_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["d_hat"] == report.d_hat
        assert "eigenvalues" in payload and "pvalues" in payload

    @settings(deadline=None, max_examples=10)
    @given(k=st.integers(-300, 300))
    def test_rescaling_by_power_of_two(self, k):
        # Multiplying the curves by c = 2^k scales every product exactly, so
        # the decision is unchanged and the operator spectrum scales by c^4,
        # for every k that leaves the leading eigenvalue a normal double.
        # Past that range the report would be wrong, so it is refused.
        panel = generate_panel(FactorModelSpec(d=2, n=60, grid=uniform_grid(21), seed=12))
        c = 2.0**k
        scaled = CurvePanel(grid=panel.grid, values=c * panel.values)
        cfg = BootstrapConfig(n_draws=20, seed=5)
        base = select_dimension(panel, p=2, cfg=cfg, d_max=3)
        if not leading_stays_normal(base.eigenvalues[0], 4 * k):
            with pytest.raises(ValidationError, match="rescale the curves"):
                select_dimension(scaled, p=2, cfg=cfg, d_max=3)
            return
        report = select_dimension(scaled, p=2, cfg=cfg, d_max=3)
        assert report.d_hat == base.d_hat
        assert report.threshold_d == base.threshold_d
        assert report.pvalues == base.pvalues
        assert np.array_equal(report.eigenfunctions, base.eigenfunctions)
        assert np.array_equal(report.eigenvalues, base.eigenvalues * c**4)
        assert np.array_equal(report.loadings, base.loadings * c)

    def test_rescaling_range_ends_where_the_leading_eigenvalue_leaves_the_doubles(self):
        # The k on either side of each end of test_rescaling_by_power_of_two's
        # range: the last k kept gives the unscaled decision, the next one
        # past it is refused.
        panel = generate_panel(FactorModelSpec(d=2, n=60, grid=uniform_grid(21), seed=12))
        cfg = BootstrapConfig(n_draws=20, seed=5)
        base = select_dimension(panel, p=2, cfg=cfg, d_max=3)
        kept = [k for k in range(-300, 301) if leading_stays_normal(base.eigenvalues[0], 4 * k)]
        assert kept == list(range(kept[0], kept[-1] + 1))
        for k, ok in ((kept[0] - 1, False), (kept[0], True), (kept[-1], True),
                      (kept[-1] + 1, False)):
            scaled = CurvePanel(grid=panel.grid, values=np.ldexp(panel.values, k))
            if ok:
                assert select_dimension(scaled, p=2, cfg=cfg, d_max=3).pvalues == base.pvalues
            else:
                with pytest.raises(ValidationError, match="rescale the curves"):
                    select_dimension(scaled, p=2, cfg=cfg, d_max=3)


class TestSubspaceDistance:
    def test_identical_bases(self):
        # sqrt turns the ~1e-16 overlap-energy rounding into ~1e-8
        g = uniform_grid()
        b = random_orthonormal_basis(g, 2, seed=0)
        assert subspace_distance_general(g, b, b) < 1e-7

    def test_orthogonal_one_dim(self):
        g = uniform_grid(201)
        f = np.sqrt(2) * np.cos(np.pi * g.points)
        h = np.sqrt(2) * np.sin(np.pi * g.points)
        assert subspace_distance_general(g, f[None, :], h[None, :]) > 1 - 1e-4

    def test_rotation_invariance(self):
        g = uniform_grid()
        b = random_orthonormal_basis(g, 2, seed=1)
        angle = 0.77
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        assert subspace_distance_general(g, b, rot @ b) < 1e-8

    def test_rejects_non_orthonormal(self):
        g = uniform_grid()
        rng = np.random.default_rng(2)
        with pytest.raises(ValidationError):
            subspace_distance_general(
                g, rng.standard_normal((2, len(g))), rng.standard_normal((2, len(g)))
            )


class TestSubspaceDistanceGeneral:
    @pytest.mark.parametrize("name", ["basis1", "basis2"])
    def test_rejects_a_nan_basis(self, name):
        # A NaN passes the orthonormality check (nan > tol is False) and
        # max(0, nan) is 0, so unchecked it would read as coinciding spans.
        good = factor_curves(GRID, 2)
        bad = good.copy()
        bad[1, 7] = np.nan
        bases = {"basis1": good, "basis2": good} | {name: bad}
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            subspace_distance_general(GRID, bases["basis1"], bases["basis2"])

    def test_reduces_to_equal_dim_metric(self):
        g = uniform_grid()
        b1 = random_orthonormal_basis(g, 3, seed=5)
        b2 = random_orthonormal_basis(g, 3, seed=6)
        assert abs(
            subspace_distance_general(g, b1, b2) - subspace_distance(g, b1, b2)
        ) <= 1e-12

    def test_nested_subspace_value(self):
        g = uniform_grid(201)
        basis = np.vstack(
            [
                np.sqrt(2) * np.cos(np.pi * g.points),
                np.sqrt(2) * np.cos(2 * np.pi * g.points),
            ]
        )
        val = subspace_distance_general(g, basis[:1], basis)
        assert abs(val - np.sqrt(0.5)) < 1e-6

    def test_orthogonal_subspaces_at_one(self):
        # disjoint index sets of the cosine family span orthogonal subspaces
        g = uniform_grid(401)
        low = np.vstack([np.sqrt(2) * np.cos(np.pi * k * g.points) for k in (1, 2)])
        high = np.vstack(
            [np.sqrt(2) * np.cos(np.pi * k * g.points) for k in (3, 4, 5)]
        )
        assert subspace_distance_general(g, low, high) > 1 - 1e-4

    def test_metric_axioms_on_random_triples(self):
        g = uniform_grid(101)
        for seed in range(60):
            dim = 2 if seed % 2 == 0 else 3
            a = random_orthonormal_basis(g, dim, seed=3 * seed)
            b = random_orthonormal_basis(g, dim, seed=3 * seed + 1)
            c = random_orthonormal_basis(g, dim, seed=3 * seed + 2)
            dab = subspace_distance_general(g, a, b)
            dba = subspace_distance_general(g, b, a)
            dac = subspace_distance_general(g, a, c)
            dcb = subspace_distance_general(g, c, b)
            assert dab >= 0
            assert abs(dab - dba) <= 1e-10
            assert subspace_distance_general(g, a, a) <= 1e-7
            assert dac + dcb - dab >= -1e-10


class TestDimensionEdgeCases:
    def test_threshold_on_rank_one_panel(self):
        panel = generate_panel(FactorModelSpec(d=1, n=200, seed=9, noise_terms=0))
        lam = operator_eigenvalues(panel, 2)
        assert threshold_estimate(lam, default_epsilon(lam, 200)) == 1

    @pytest.mark.parametrize(
        "n, scale", [(185, 1e-3), (200, 0.1), (233, 1.0), (250, 7.0), (271, 3e2), (289, 1e3)]
    )
    def test_identical_curves_have_dimension_zero(self, n, scale):
        # What centering leaves of n copies of one curve is roundoff, so
        # the span has rank 0 at a tolerance taken on the uncentered
        # curves: every eigenvalue is zero and no hypothesis is rejected.
        # A tolerance relative to the centered roundoff found rank >= 1,
        # and reported d_hat = threshold_d = 1 with p-value 0.
        g = uniform_grid()
        curve = scale * (1.0 + 0.5 * np.sin(2 * np.pi * g.points) + g.points**2)
        panel = CurvePanel(grid=g, values=np.tile(curve, (n, 1)))
        report = select_dimension(panel, p=5, cfg=BootstrapConfig(n_draws=50), d_max=4)
        assert (report.d_hat, report.threshold_d) == (0, 0)
        assert set(report.pvalues.values()) == {1.0}
        assert not np.any(report.eigenvalues)
        assert report.loadings.shape == (n, 0)
        # A genuine factor at 1e-4 of the mean curve's level is kept.
        factor = generate_panel(FactorModelSpec(d=1, n=n, noise_terms=0, seed=3)).values
        panel = CurvePanel(grid=g, values=curve + 1e-4 * scale * factor / np.abs(factor).max())
        report = select_dimension(panel, p=5, cfg=BootstrapConfig(n_draws=50), d_max=4)
        assert (report.d_hat, report.threshold_d) == (1, 1)
        assert len(decompose(panel, 5).eigenfunctions) == 1
