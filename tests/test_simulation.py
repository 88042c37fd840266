import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from curvedim import simulation
from curvedim.cli import main
from curvedim.dimension import (
    _overlap_distance,
    default_epsilon,
    subspace_distance_general,
    threshold_estimate,
)
from curvedim.eigen import decompose, operator_eigenvalues
from curvedim.errors import ValidationError
from curvedim.grids import CurvePanel, Grid
from curvedim.simulation import (
    BURN_IN,
    DRAW_CHUNK_BYTES,
    GRID,
    RATE_AR_COEFFICIENT,
    RATE_LAG_BUDGET,
    FactorModelSpec,
    _child_seed,
    ar1_paths,
    bootstrap_power_study,
    default_ar_coefficients,
    eigen_gap_study,
    factor_curves,
    generate_panel,
    generate_panels,
    noise_curves,
    rate_study,
    reference_rate_eigenvalue,
    subspace_error_study,
)
from reference import ar1_lfilter, ar1_loop, factor_panel, rate_regression_slopes


def panels_per_chunk(d: int, n: int) -> tuple[int, int]:
    """Panels per draw, whose factor innovations fit in ``DRAW_CHUNK_BYTES``,
    and per value stack, whose values on ``GRID`` fit in it."""
    return (DRAW_CHUNK_BYTES // (8 * d * (BURN_IN + n)),
            DRAW_CHUNK_BYTES // (8 * n * len(GRID)))


def one_panel_at_a_time(monkeypatch, study, **kwargs):
    """The study's result with each panel drawn alone, by the scalar
    reference, and solved alone, by ``decompose`` or ``operator_eigenvalues``."""
    with monkeypatch.context() as m:
        m.setattr(
            simulation,
            "generate_panels",
            lambda spec, seeds: (factor_panel(replace(spec, seed=s)) for s in seeds),
        )
        # A "stack" of one CurvePanel, which the solver below takes apart.
        m.setattr(
            simulation,
            "_value_stacks",
            lambda spec, seeds: ([factor_panel(replace(spec, seed=s))] for s in seeds),
        )
        m.setattr(
            simulation,
            "operator_eigenvalues_stack",
            lambda panels, grid, p: np.array([operator_eigenvalues(x, p) for x in panels]),
        )
        return study(**kwargs)


def subspace_error_one_panel_at_a_time(d_values, n_values, replications, p, seed):
    """``subspace_error_study``'s result with each panel drawn alone, by the
    scalar reference, solved alone by ``decompose`` and measured by the
    one-panel rules: ``threshold_estimate`` at ``default_epsilon``, and
    ``_overlap_distance`` of the leading d and d_hat eigenfunctions."""
    records = []
    for di, d in enumerate(d_values):
        truth = factor_curves(GRID, d)
        for ni, n in enumerate(n_values):
            for rep in range(replications):
                spec = FactorModelSpec(d=d, n=n, seed=_child_seed(seed, di, ni, rep))
                dec = decompose(factor_panel(spec), p)
                lam, funcs = dec.eigenvalues, dec.eigenfunctions
                d_hat = threshold_estimate(lam, default_epsilon(lam, n))
                records.append({"d": d, "n": n, "replication": rep, "d_hat": d_hat,
                                "dtilde": _overlap_distance(GRID, funcs[:d], truth),
                                "dtilde_adaptive": _overlap_distance(GRID, funcs[:d_hat], truth)})
    return records, {}


def stationary_ar1(a: float, length: int, rng: np.random.Generator) -> np.ndarray:
    """One stationary path through ``ar1_paths``, drawn in the reference
    order: the BURN_IN + length innovations, then the start."""
    innovations = rng.standard_normal((BURN_IN + length, 1))
    start = rng.standard_normal() / np.sqrt(1.0 - a * a)
    return ar1_paths([a], innovations, [start])[:, 0]


def mean_eigenvalues(records, d, n) -> np.ndarray:
    """The eigenvalue columns of the eigen-gap record of cell (d, n)."""
    [row] = [r for r in records if r["d"] == d and r["n"] == n]
    return np.array([row[f"eigenvalue_{j}"] for j in range(1, 11)])


class TestAr1Paths:
    def test_matches_linear_filter_bit_for_bit(self):
        draws = np.random.default_rng(19)
        for _ in range(200):
            a = float(draws.uniform(-0.99, 0.99))
            length = int(draws.integers(1, 700))
            seed = int(draws.integers(2**32))
            got = stationary_ar1(a, length, np.random.default_rng(seed))
            want = ar1_lfilter(a, length, np.random.default_rng(seed))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_columns_match_scalar_loops_bit_for_bit(self):
        coefficients = [0.9, -0.65, 0.0, 0.4, -0.99]
        length = 300
        columns, starts = [], []
        for seed, a in enumerate(coefficients):
            rng = np.random.default_rng(seed)
            columns.append(rng.standard_normal(BURN_IN + length))
            starts.append(rng.standard_normal() / np.sqrt(1.0 - a * a))
        got = ar1_paths(coefficients, np.column_stack(columns), starts)
        assert got.shape == (length, len(coefficients))
        for j, a in enumerate(coefficients):
            want = ar1_loop(a, length, np.random.default_rng(j))
            assert got[:, j].tobytes() == want.tobytes()

    def test_zero_coefficient_is_iid_unit_variance(self):
        t_len = 10000
        x = stationary_ar1(0.0, t_len, np.random.default_rng(0))
        assert abs(x.var() - 1.0) <= 3 * np.sqrt(2 / t_len)

    def test_lag_one_autocorrelation(self):
        x = stationary_ar1(0.5, 100000, np.random.default_rng(2))
        c = x - x.mean()
        acf1 = (c[:-1] @ c[1:]) / (c @ c)
        assert abs(acf1 - 0.5) <= 0.02


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

    def test_rejects_negative_noise_terms(self):
        with pytest.raises(ValidationError, match="noise_terms must be >= 0, got -1"):
            FactorModelSpec(d=1, n=10, noise_terms=-1)

    def test_rejects_fractional_noise_terms(self):
        with pytest.raises(ValidationError, match="noise_terms must be an integer"):
            FactorModelSpec(d=1, n=10, noise_terms=2.5)

    def test_rejects_nan_coefficient(self):
        with pytest.raises(ValidationError, match="AR coefficients must be finite"):
            FactorModelSpec(d=1, n=10, ar_coefficients=(float("nan"),))

    @pytest.mark.parametrize("field", ["d", "n"])
    def test_rejects_non_integer_sizes(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            FactorModelSpec(**({"d": 1, "n": 10} | {field: 10.0}))


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


class TestGeneratePanels:
    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("noise_terms", [0, 10])
    def test_match_one_panel_draws_and_scalar_reference(self, d, noise_terms):
        n = 2000
        count = panels_per_chunk(d, n)[0] + 1  # the last panel starts a second draw
        spec = FactorModelSpec(d=d, n=n, noise_terms=noise_terms, seed=99)  # seed unused
        seeds = list(range(count))
        together = [p.values.tobytes() for p in generate_panels(spec, seeds)]
        alone = [replace(spec, seed=s) for s in seeds]
        assert together == [generate_panel(s).values.tobytes() for s in alone]
        assert together == [factor_panel(s).values.tobytes() for s in alone]

    def test_no_specs_no_panels(self):
        assert list(generate_panels(FactorModelSpec(d=2, n=40), [])) == []

    @pytest.mark.parametrize("bad", [-1, True, 2.0])
    def test_rejects_a_bad_seed_before_any_panel(self, bad):
        panels = generate_panels(FactorModelSpec(d=2, n=40), [1, 2, bad])
        with pytest.raises(ValidationError, match="seed must be"):
            next(panels)

    @pytest.mark.parametrize("noise_terms", [0, 10])
    def test_panels_keep_the_drawn_array(self, monkeypatch, noise_terms):
        drawn = []

        class RecordingPanel(CurvePanel):
            def __post_init__(self):
                drawn.append(self.values)
                super().__post_init__()

        monkeypatch.setattr(simulation, "CurvePanel", RecordingPanel)
        spec = FactorModelSpec(d=2, n=40, noise_terms=noise_terms)
        for panel in generate_panels(spec, [1, 2]):
            assert panel.values is drawn[-1]  # read-only already, so not copied
            assert not panel.values.flags.writeable


# Each study over one draw of replications and one more. At n = 100 a
# stack holds 12 panels, and a draw 36 at d = 6 and 218 at d = 1: so the
# replications fill several stacks and start a second draw.
CROSSING = panels_per_chunk(6, 100)[0] + 1
CHUNK_CROSSING_STUDIES = [
    (eigen_gap_study, dict(d_values=[6], n_values=[100], replications=CROSSING, p=2, seed=4)),
    (bootstrap_power_study, dict(d=6, n_values=[100], replications=CROSSING, n_draws=5, p=2,
                                 seed=4)),
    (subspace_error_study, dict(d_values=[6], n_values=[100], replications=CROSSING, p=2,
                                seed=4)),
    (rate_study, dict(sample_sizes=[100], replications=panels_per_chunk(1, 100)[0] + 1,
                      seed=4)),
]


def test_crossing_studies_cross_draws_and_stacks():
    for d in (1, 6):
        per_draw, per_stack = panels_per_chunk(d, 100)
        assert 1 < per_stack < per_draw


# At n 100 and p 2, d = 1 gives d_hat 1, 2 and 3, and d = 6 gives 1 to 5: one
# stack holds panels with d_hat above, at and below d, and d_hat = 1.
MIXED_D_HAT = dict(d_values=[1, 6], n_values=[100], replications=40, p=2, seed=4)


@pytest.mark.parametrize(
    "study, kwargs", [*CHUNK_CROSSING_STUDIES, (subspace_error_study, MIXED_D_HAT)],
    ids=[*(study.__name__ for study, _ in CHUNK_CROSSING_STUDIES), "subspace_error_mixed_d_hat"],
)
def test_study_records_match_one_panel_at_a_time(monkeypatch, study, kwargs):
    if study is subspace_error_study:
        want = subspace_error_one_panel_at_a_time(**kwargs)
    else:
        want = one_panel_at_a_time(monkeypatch, study, **kwargs)
    assert study(**kwargs) == want


class TestEigenGapStudy:
    def test_noiseless_rank_one_mean_spectrum(self):
        rows = []
        for rep in range(10):
            spec = FactorModelSpec(d=1, n=60, seed=rep, noise_terms=0)
            lam = operator_eigenvalues(generate_panel(spec), 5)
            padded = np.zeros(10)
            padded[: min(10, lam.size)] = lam[:10]
            rows.append(padded)
        mean_lam = np.mean(rows, axis=0)
        assert np.sum(mean_lam > 1e-8 * mean_lam[0]) == 1

    def test_gap_and_zero_eigenvalue_shrinkage(self):
        records, _ = eigen_gap_study([2], [100, 600], 30, p=5, seed=31)
        lam100 = mean_eigenvalues(records, 2, 100)
        lam600 = mean_eigenvalues(records, 2, 600)
        assert lam600[1] / lam600[2] > 3.0
        assert lam600[2] < lam100[2]

    def test_csv_layout(self, tmp_path):
        assert main(["simulate", "eigen-gap", "--d-values", "2", "--n-values", "100",
                     "--replications", "3", "--p", "5", "--seed", "1",
                     "--output-dir", str(tmp_path)]) == 0
        header, row = (tmp_path / "figure1_eigenvalues.csv").read_text().splitlines()
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
                    decompose(panel, 5), [1],
                    BootstrapConfig(n_draws=50, seed=_child_seed(515, n, rep, 1)),
                )
                rejections += pv <= 0.05
            rates[n] = rejections / 10
        assert rates[600] - rates[100] >= 0.4

    def test_pvalues_shape_and_range(self):
        records, _ = bootstrap_power_study(1, [80], 4, n_draws=20, p=2, seed=3)
        for rank in (1, 2):
            pv = np.array([r["p_value"] for r in records if r["tested_rank"] == rank])
            assert pv.shape == (4,)
            assert np.all((0 <= pv) & (pv <= 1))

    def test_first_replications_match_a_shorter_run(self):
        full, _ = bootstrap_power_study(1, [80], 4, n_draws=20, p=2, seed=3)
        short, _ = bootstrap_power_study(1, [80], 2, n_draws=20, p=2, seed=3)
        assert [r for r in full if r["replication"] < 2] == short


class TestSubspaceErrorStudy:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_factor_curves_quadrature_orthonormal(self, d):
        curves = factor_curves(GRID, d)
        gram = (curves * GRID.weights) @ curves.T
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-12

    def test_empty_estimate_is_at_distance_one(self):
        empty = np.empty((0, len(GRID)))
        assert _overlap_distance(GRID, empty, factor_curves(GRID, 3)) == 1.0

    def test_distances_match_subspace_distance_general(self):
        seed, d, n = 14, 3, 100
        records, _ = subspace_error_study([d], [n], 4, p=5, seed=seed)
        truth = factor_curves(GRID, d)
        for r in records:
            spec = FactorModelSpec(d=d, n=n, seed=_child_seed(seed, 0, 0, r["replication"]))
            basis = decompose(generate_panel(spec), 5).eigenfunctions
            assert r["d_hat"] >= 1
            for key, k in (("dtilde", d), ("dtilde_adaptive", r["d_hat"])):
                want = subspace_distance_general(GRID, basis[:k], truth)
                assert abs(r[key] - want) <= 1e-12

    def test_records_complete_and_bounded(self):
        records, _ = subspace_error_study([2], [100], 5, p=5, seed=11)
        assert len(records) == 5
        for r in records:
            assert 0.0 <= r["dtilde"] <= 1.0
            assert 0.0 <= r["dtilde_adaptive"] <= 1.0
            assert r["d_hat"] >= 0

    def test_error_shrinks_with_sample_size(self):
        records, _ = subspace_error_study([2], [100, 600], 20, p=5, seed=12)
        med = {
            n: np.median([r["dtilde"] for r in records if r["n"] == n])
            for n in (100, 600)
        }
        assert med[600] < med[100]

    def test_stacks_keep_the_study_memory_bounded(self):
        # Draws and value stacks are each bounded by DRAW_CHUNK_BYTES (1 MiB),
        # so 600 panels need a few MiB whatever their count: about 6 MiB here.
        tracemalloc.start()
        try:
            subspace_error_study((2, 4, 6), (100, 600), 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_first_replications_match_a_shorter_run(self):
        full, _ = subspace_error_study([2, 3], [60], 5, p=3, seed=13)
        short, _ = subspace_error_study([2, 3], [60], 3, p=3, seed=13)
        assert [r for r in full if r["replication"] < 3] == short


class TestRateStudy:
    def test_reference_eigenvalue_matches_analytic_value(self):
        ref = reference_rate_eigenvalue(GRID, 0.5)
        gamma1 = 0.5 / (1 - 0.25)
        assert abs(ref - gamma1**2) < 1e-3  # quadrature bias only
        fine = reference_rate_eigenvalue(Grid.uniform(0.0, 1.0, 801), 0.5)
        assert abs(fine - gamma1**2) < abs(ref - gamma1**2) + 1e-12

    def test_records_and_reference_wiring(self):
        records, design = rate_study((100, 200), 5, seed=2)
        assert len(records) == 10
        theta_ref = reference_rate_eigenvalue(GRID, RATE_AR_COEFFICIENT)
        assert design == {
            "p": RATE_LAG_BUDGET,
            "ar_coefficient": RATE_AR_COEFFICIENT,
            "reference_eigenvalue": theta_ref,
            "reference_eigenvalue_analytic": pytest.approx(4.0 / 9.0),
        }
        assert all(r["abs_err_theta1"] == abs(r["theta1"] - theta_ref) for r in records)

    def test_zero_eigenvalue_shrinks_faster(self):
        records, _ = rate_study((100, 400, 1600), 30, seed=5)
        slope_err1, slope_theta2 = rate_regression_slopes(records)
        assert slope_theta2 < slope_err1 < 0

    def test_csv_has_row_per_replication(self, tmp_path):
        assert main(["simulate", "rate", "--sample-sizes", "100", "--replications", "4",
                     "--seed", "3", "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "rate_study.csv").read_text().splitlines()
        assert lines[0] == "n,replication,theta1,theta2,abs_err_theta1"
        assert len(lines) == 5

    def test_first_replications_match_a_shorter_run(self):
        full, _ = rate_study((100, 200), 5, seed=8)
        short, _ = rate_study((100, 200), 3, seed=8)
        assert [r for r in full if r["replication"] < 3] == short
