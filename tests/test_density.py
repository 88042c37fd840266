import numpy as np
import pytest

from curvedim.density import (
    DENSITY_GRID,
    SAMPLING_TIMES,
    TickDay,
    build_density_panel,
    day_density,
    kde_curve,
    log_returns,
    previous_tick_prices,
    read_tick_manifest,
    silverman_bandwidth,
)
from curvedim.errors import (
    DayProcessingError,
    DegenerateSeriesError,
    DomainError,
    MissingOpeningTickError,
    ValidationError,
)
from curvedim.grids import Grid, write_panel_csv
from fixtures import synthetic_tick_days, write_tick_manifest
from reference import dual_matrix


def minutes(h, m):
    return h * 3600.0 + m * 60.0


class TestPreviousTickPrices:
    # The fixed sampling times run from 9:30 to 16:00 in 5-minute steps,
    # so the first three are 9:30, 9:35 and 9:40.

    def test_latest_tick_not_after_rule(self):
        day = TickDay(
            day_id="d1",
            times=np.array([minutes(9, 30), minutes(9, 34), minutes(9, 37)]),
            prices=np.array([100.0, 101.0, 102.0]),
        )
        sampled = previous_tick_prices(day)
        assert sampled[1] == 101.0  # at 9:35 the latest tick is 9:34
        assert sampled.tolist() == [100.0, 101.0] + [102.0] * 77

    def test_single_early_tick_gives_constant_series(self):
        day = TickDay(day_id="d2", times=np.array([minutes(9, 29)]), prices=np.array([99.5]))
        assert np.all(previous_tick_prices(day) == 99.5)

    def test_ticks_exactly_at_sampling_times(self):
        times = np.array([minutes(9, 30), minutes(9, 35), minutes(9, 40)])
        prices = np.array([1.0, 2.0, 3.0])
        day = TickDay(day_id="d3", times=times, prices=prices)
        assert previous_tick_prices(day).tolist() == [1.0, 2.0] + [3.0] * 77

    def test_last_tick_wins_on_timestamp_tie(self):
        day = TickDay(
            day_id="d4",
            times=np.array([minutes(9, 30), minutes(9, 35), minutes(9, 35)]),
            prices=np.array([100.0, 101.0, 103.0]),
        )
        assert previous_tick_prices(day)[1] == 103.0

    def test_missing_opening_tick(self):
        day = TickDay(day_id="d5", times=np.array([minutes(9, 31)]), prices=np.array([5.0]))
        with pytest.raises(MissingOpeningTickError):
            previous_tick_prices(day)

    def test_idempotent_under_late_tick_refinement(self):
        day = TickDay(
            day_id="d6",
            times=np.array([minutes(9, 30), minutes(9, 33)]),
            prices=np.array([10.0, 11.0]),
        )
        refined = TickDay(
            day_id="d6",
            times=np.append(day.times, minutes(16, 1)),
            prices=np.append(day.prices, 12.0),
        )
        assert np.array_equal(previous_tick_prices(day), previous_tick_prices(refined))


class TestLogReturns:
    def test_constant_prices_give_zero(self):
        assert np.allclose(log_returns(np.full(5, 42.0)), 0.0)

    def test_single_step_value(self):
        r = log_returns(np.array([100.0, 101.0]))
        assert abs(r[0] - 0.00995033) < 1e-8

    def test_round_trip_telescopes(self):
        r = log_returns(np.array([100.0, 101.0, 100.0]))
        assert abs(r.sum()) < 1e-15

    def test_nonpositive_price_rejected(self):
        with pytest.raises(DomainError):
            log_returns(np.array([100.0, -1.0]))


class TestSilvermanBandwidth:
    def test_rule_of_thumb_value(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(78)
        z = (z - z.mean()) / z.std(ddof=1)  # sample sd exactly 1
        assert abs(silverman_bandwidth(z) - 1.06 * 78 ** (-0.2)) < 1e-12
        assert abs(silverman_bandwidth(z) - 0.4435) < 1e-3

    def test_multiplier_scales_linearly(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(50)
        assert silverman_bandwidth(z, 2.0) == pytest.approx(2 * silverman_bandwidth(z))

    def test_homogeneous_in_returns_scale(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(50)
        assert silverman_bandwidth(3.0 * z) == pytest.approx(3 * silverman_bandwidth(z))

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            silverman_bandwidth(np.zeros(10))

    @pytest.mark.parametrize("multiplier", [0.0, -1.0, float("nan"), np.inf])
    def test_multiplier_must_be_positive_and_finite(self, multiplier):
        with pytest.raises(ValidationError, match="multiplier"):
            silverman_bandwidth(np.arange(10.0), multiplier)


class TestKdeCurve:
    @pytest.mark.parametrize("bandwidth", [0.0, -0.2, float("nan"), np.inf])
    def test_bandwidth_must_be_positive_and_finite(self, bandwidth):
        with pytest.raises(ValidationError, match="bandwidth"):
            kde_curve(np.array([0.0, 0.1]), bandwidth, Grid.uniform(-1.0, 1.0, 21))

    def test_single_observation_is_gaussian_density(self):
        grid = Grid.uniform(-1.0, 1.0, 201)
        h = 0.2
        curve = kde_curve(np.array([0.0]), h, grid)
        expected = np.exp(-0.5 * (grid.points / h) ** 2) / (h * np.sqrt(2 * np.pi))
        assert np.allclose(curve, expected, atol=1e-14)

    def test_integrates_to_one_on_wide_grid(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(40) * 0.01
        h = silverman_bandwidth(z)
        grid = Grid.uniform(z.min() - 8 * h, z.max() + 8 * h, 2001)
        mass = float(np.sum(grid.weights * kde_curve(z, h, grid)))
        assert 0.999 <= mass <= 1.001

    def test_symmetric_observations_give_symmetric_curve(self):
        h = 0.3
        grid = Grid.uniform(-2.0, 2.0, 401)
        curve = kde_curve(np.array([-h, h]), h, grid)
        assert np.max(np.abs(curve - curve[::-1])) < 1e-12


class TestBuildDensityPanel:
    def test_panel_has_row_per_day(self):
        days = synthetic_tick_days(8, seed=0, ticks_per_day=300)
        panel, meta = build_density_panel(days)
        assert panel.n == 8
        assert len(meta) == 8
        assert all(not m["skipped"] for m in meta)
        assert all(set(m) >= {"day_id", "sigma", "bandwidth", "tick_count"} for m in meta)

    def test_identical_days_have_no_dynamics(self):
        base = synthetic_tick_days(1, seed=1, ticks_per_day=300)[0]
        clones = [
            TickDay(day_id=f"c{i}", times=base.times, prices=base.prices)
            for i in range(4)
        ]
        panel, _ = build_density_panel(clones)
        assert np.allclose(dual_matrix(panel, 2).values, 0.0, atol=1e-20)

    def test_curves_nonnegative_with_bounded_mass(self):
        days = synthetic_tick_days(6, seed=2, ticks_per_day=300)
        panel, _ = build_density_panel(days)
        assert np.all(panel.values >= 0.0)
        mass = panel.values @ panel.grid.weights
        assert np.all(mass <= 1.0 + 1e-9)

    def test_bad_day_names_the_day(self):
        days = synthetic_tick_days(4, seed=3, ticks_per_day=300)
        bad = TickDay(
            day_id="day003",
            times=np.array([days[2].times[-1]]),
            prices=np.array([100.0]),
        )
        days[2] = bad  # only one tick, at the close: no opening price
        with pytest.raises(DayProcessingError, match="day003"):
            build_density_panel(days)

    def test_skip_flag_records_and_drops_bad_day(self):
        days = synthetic_tick_days(4, seed=3, ticks_per_day=300)
        days[2] = TickDay(
            day_id="day003",
            times=np.array([days[2].times[-1]]),
            prices=np.array([100.0]),
        )
        panel, meta = build_density_panel(days, skip_bad_days=True)
        assert panel.n == 3
        skipped = [m for m in meta if m["skipped"]]
        assert len(skipped) == 1 and skipped[0]["day_id"] == "day003"
        assert skipped[0]["error"]["kind"] == "missing-opening"

    def test_deterministic_panel_bytes(self, tmp_path):
        days = synthetic_tick_days(5, seed=4, ticks_per_day=300)
        paths = []
        for tag in ("a", "b"):
            panel, _ = build_density_panel(days)
            path = tmp_path / f"panel_{tag}.csv"
            write_panel_csv(panel, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_needs_two_days(self):
        days = synthetic_tick_days(2, seed=5, ticks_per_day=300)
        with pytest.raises(ValidationError):
            build_density_panel(days[:1])


class TestDensityConfig:
    """The fixed design, and the check on its one setting, the multiplier."""

    def test_default_gives_78_returns(self):
        assert SAMPLING_TIMES.tolist() == [minutes(9, 30) + 300.0 * k for k in range(79)]
        assert SAMPLING_TIMES[-1] == minutes(16, 0)
        day = synthetic_tick_days(1, seed=0, ticks_per_day=300)[0]
        assert log_returns(previous_tick_prices(day)).size == 78

    def test_multiplier_must_be_positive_and_finite(self):
        days = synthetic_tick_days(3, seed=0, ticks_per_day=300)
        for multiplier in (0.0, -1.0, float("nan"), np.inf):
            for skip in (False, True):
                with pytest.raises(ValidationError, match="multiplier"):
                    build_density_panel(days, multiplier, skip_bad_days=skip)


class TestTickIo:
    def test_manifest_round_trip(self, tmp_path):
        days = synthetic_tick_days(3, seed=6, ticks_per_day=50)
        manifest = write_tick_manifest(days, tmp_path / "ticks")
        back = read_tick_manifest(manifest)
        assert [d.day_id for d in back] == [d.day_id for d in days]
        for a, b in zip(back, days):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.prices, b.prices)

    def test_day_pipeline_metadata(self):
        day = synthetic_tick_days(1, seed=7, ticks_per_day=200)[0]
        curve, meta = day_density(day, 1.0)
        assert curve.shape == (201,)
        assert DENSITY_GRID.points[[0, -1]].tolist() == [-0.002, 0.002]
        assert meta["bandwidth"] > 0 and meta["sigma"] > 0
