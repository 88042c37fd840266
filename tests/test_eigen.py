import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedim.dimension import (
    BootstrapConfig,
    default_epsilon,
    select_dimension,
    threshold_estimate,
)

from curvedim.eigen import (
    _reduced_operator,
    _span_coordinates,
    _symmetric_solve,
    decompose,
    decompose_stack,
    loadings,
    operator_eigenvalues,
    operator_eigenvalues_stack,
)
from curvedim.errors import InsufficientSampleError
from curvedim.grids import CurvePanel, Grid, mean_curve
from curvedim.simulation import FactorModelSpec, _value_stacks, generate_panel
from reference import (
    discretized_operator,
    dual_matrix,
    eigen_dual,
    eigenfunctions_from_dual,
    gram_matrix,
    gram_schmidt,
    inner_product,
)


def uniform_grid(m=101):
    return Grid.uniform(0.0, 1.0, m)


def random_panel(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return CurvePanel(grid=uniform_grid(m), values=rng.standard_normal((n, m)))


def rank_one_panel(n=30, m=101, seed=4):
    """Noiseless single-factor panel with mean-zero scores."""
    g = uniform_grid(m)
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n)
    scores -= scores.mean()
    phi = np.sqrt(2) * np.cos(np.pi * g.points)
    return CurvePanel(grid=g, values=np.outer(scores, phi)), phi, scores


def symmetrized_oracle_spectrum(panel, p):
    """Spectrum of S^{1/2} G0 S^{1/2} / (n-p)^2 with S the lag-sum Gram."""
    n_eff = panel.n - p
    s = sum(gram_matrix(panel, k, p) for k in range(1, p + 1))
    g0 = gram_matrix(panel, 0, p)
    vals, vecs = np.linalg.eigh(s)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    sym = root @ g0 @ root / n_eff**2
    return np.sort(np.linalg.eigvalsh((sym + sym.T) / 2.0))[::-1]


def grid_operator_spectrum(panel, p):
    """Independent discretization: quadrature-weighted kernel eigenproblem."""
    root = np.sqrt(panel.grid.weights)
    sym = discretized_operator(panel, p) * root[:, None] * root[None, :]
    return np.sort(np.linalg.eigvalsh((sym + sym.T) / 2.0))[::-1]


def dual_reference(panel, p, n_components):
    """Dual-route spectrum and orthonormal positive-peak eigenfunctions.

    The reference side of the duality tests: the pipeline itself only
    solves the span operator.
    """
    lam, gamma = eigen_dual(dual_matrix(panel, p), gram_matrix(panel, 0, p))
    raw = eigenfunctions_from_dual(panel, gamma, n_components)
    funcs, dropped = gram_schmidt(panel.grid, raw)
    assert dropped == []
    peaks = funcs[np.arange(len(funcs)), np.argmax(np.abs(funcs), axis=1)]
    return lam, funcs * np.sign(peaks)[:, None]


class TestDualMatrix:
    def test_identical_curves_give_zero(self):
        g = uniform_grid(31)
        panel = CurvePanel(grid=g, values=np.tile(np.cos(g.points), (8, 1)))
        assert np.allclose(dual_matrix(panel, 3).values, 0.0, atol=1e-14)

    def test_spectrum_real_nonnegative(self):
        panel = random_panel(20, 51, seed=7)
        dm = dual_matrix(panel, 4)
        lam = np.linalg.eigvals(dm.values)
        radius = np.max(np.abs(lam))
        assert np.max(np.abs(lam.imag)) <= 1e-8 * radius
        assert lam.real.min() >= -1e-8 * radius

    def test_trace_identity(self):
        panel = random_panel(22, 41, seed=8)
        p = 3
        dm = dual_matrix(panel, p)
        g0 = gram_matrix(panel, 0, p)
        expected = sum(
            np.trace(gram_matrix(panel, k, p) @ g0) for k in range(1, p + 1)
        ) / (panel.n - p) ** 2
        assert np.isclose(np.trace(dm.values), expected, rtol=1e-10)

    def test_requires_enough_curves(self):
        panel = random_panel(5, 11)
        with pytest.raises(InsufficientSampleError):
            dual_matrix(panel, 5)


class TestEigenDual:
    def test_zero_matrix(self):
        g = uniform_grid(31)
        panel = CurvePanel(grid=g, values=np.tile(np.cos(g.points), (8, 1)))
        lam, _ = eigen_dual(dual_matrix(panel, 2), gram_matrix(panel, 0, 2))
        assert np.allclose(lam, 0.0, atol=1e-14)

    def test_rank_one_panel_single_eigenvalue(self):
        panel, _, _ = rank_one_panel()
        lam, _ = eigen_dual(dual_matrix(panel, 2), gram_matrix(panel, 0, 2))
        assert np.sum(lam > 1e-10 * lam[0]) == 1

    def test_matches_symmetrized_oracle(self):
        panel = random_panel(25, 41, seed=11)
        p = 3
        lam, _ = eigen_dual(dual_matrix(panel, p), gram_matrix(panel, 0, p))
        oracle = symmetrized_oracle_spectrum(panel, p)
        scale = max(oracle[0], 1e-300)
        assert np.max(np.abs(lam - oracle)) <= 1e-8 * scale

    def test_eigenvector_residuals(self):
        panel = random_panel(25, 41, seed=12)
        p = 3
        dm = dual_matrix(panel, p)
        lam, vec = eigen_dual(dm, gram_matrix(panel, 0, p))
        for j in range(5):
            resid = np.linalg.norm(dm.values @ vec[:, j] - lam[j] * vec[:, j])
            assert resid <= 1e-8 * lam[0]

    def test_singular_gram_falls_back(self):
        # n - p > m makes the lag-0 Gram matrix rank deficient
        panel = random_panel(40, 21, seed=13)
        p = 2
        lam, _ = eigen_dual(dual_matrix(panel, p), gram_matrix(panel, 0, p))
        oracle = symmetrized_oracle_spectrum(panel, p)
        keep = oracle > 1e-10 * oracle[0]
        assert np.max(np.abs(lam[: keep.sum()] - oracle[keep])) <= 1e-6 * oracle[0]

    def test_singular_gram_keeps_only_nonzero_eigenvectors(self):
        # Noise-free two-factor panel with n - p > m: G0 has rank <= m and
        # K* has exactly two nonzero eigenvalues.
        panel = generate_panel(
            FactorModelSpec(d=2, n=60, noise_terms=0, grid=uniform_grid(21))
        )
        p = 2
        dm = dual_matrix(panel, p)
        lam, vec = eigen_dual(dm, gram_matrix(panel, 0, p))
        grid_lam = np.zeros(lam.size)
        grid_lam[: len(panel.grid)] = operator_eigenvalues(panel, p)
        scale = lam[0]
        assert np.max(np.abs(lam - grid_lam)) <= 1e-8 * scale
        nonzero = np.flatnonzero(np.linalg.norm(vec, axis=0))
        assert nonzero.tolist() == [0, 1]
        for j in nonzero:
            resid = np.linalg.norm(dm.values @ vec[:, j] - lam[j] * vec[:, j])
            assert resid <= 1e-8 * scale


class TestEigenfunctionsFromDual:
    def test_unit_vector_picks_first_centered_curve(self):
        panel = random_panel(12, 31, seed=2)
        e1 = np.zeros((10, 1))
        e1[0, 0] = 1.0
        funcs = eigenfunctions_from_dual(panel, e1, 1)
        assert np.allclose(funcs[0], panel.values[0] - mean_curve(panel))

    def test_zero_vector_gives_zero_curve(self):
        panel = random_panel(12, 31, seed=2)
        funcs = eigenfunctions_from_dual(panel, np.zeros((10, 1)), 1)
        assert np.allclose(funcs[0], 0.0)

    def test_rank_one_recovers_factor_direction(self):
        panel, phi, _ = rank_one_panel()
        p = 2
        _, vec = eigen_dual(dual_matrix(panel, p), gram_matrix(panel, 0, p))
        raw = eigenfunctions_from_dual(panel, vec, 1)[0]
        g = panel.grid
        cos = abs(inner_product(g, raw, phi)) / np.sqrt(
            inner_product(g, raw, raw) * inner_product(g, phi, phi)
        )
        assert cos >= 1 - 1e-8


class TestGramSchmidt:
    def test_orthonormal_input_unchanged(self):
        g = uniform_grid(201)
        basis = np.vstack(
            [np.sqrt(2) * np.cos(np.pi * k * g.points) for k in (1, 2, 3)]
        )
        ortho, dropped = gram_schmidt(g, basis)
        assert dropped == []
        for row, orig in zip(ortho, basis):
            sign = np.sign(inner_product(g, row, orig))
            assert np.max(np.abs(sign * row - orig)) < 1e-10

    def test_duplicate_dropped(self):
        g = uniform_grid(51)
        f = np.cos(g.points)
        ortho, dropped = gram_schmidt(g, np.vstack([f, f]))
        assert ortho.shape[0] == 1
        assert dropped == [1]

    def test_random_curves_orthonormal(self):
        g = uniform_grid(51)
        rng = np.random.default_rng(5)
        ortho, dropped = gram_schmidt(g, rng.standard_normal((5, 51)))
        assert dropped == []
        gram = (ortho * g.weights) @ ortho.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8


class TestLoadings:
    def test_constant_panel_gives_zero(self):
        g = uniform_grid(31)
        panel = CurvePanel(grid=g, values=np.tile(np.sin(g.points), (5, 1)))
        psi = np.sqrt(2) * np.cos(np.pi * g.points)
        lam = loadings(panel, psi[None, :])
        assert np.allclose(lam, 0.0, atol=1e-12)

    def test_synthetic_inversion(self):
        g = uniform_grid(101)
        rng = np.random.default_rng(6)
        eta = rng.standard_normal(20)
        eta -= eta.mean()
        psi = np.sqrt(2) * np.cos(np.pi * g.points)
        base = 1.0 + 0.3 * np.sin(2 * np.pi * g.points)
        panel = CurvePanel(grid=g, values=base + np.outer(eta, psi))
        lam = loadings(panel, psi[None, :])
        assert np.max(np.abs(lam[:, 0] - eta)) <= 1e-3 * np.max(np.abs(eta))

    def test_columns_have_mean_zero(self):
        panel = random_panel(30, 51, seed=14)
        dec = decompose(panel, 3)
        lam = loadings(panel, dec.eigenfunctions[:4])
        norms = np.linalg.norm(lam, axis=0)
        assert np.all(np.abs(lam.sum(axis=0)) <= 1e-8 * np.maximum(norms, 1e-300))


class TestDecompose:
    def test_duality_against_grid_discretization(self):
        for seed, n, p in ((0, 30, 2), (1, 45, 5), (2, 60, 4)):
            panel = random_panel(n, 101, seed=seed)
            lam, _ = dual_reference(panel, p, 1)
            oracle = grid_operator_spectrum(panel, p)
            keep = np.where(oracle > 1e-8 * oracle[0])[0]
            rel = np.abs(lam[keep] - oracle[keep]) / oracle[keep]
            assert np.max(rel) < 1e-6

    def test_routes_agree_on_eigenfunctions(self):
        panel = random_panel(40, 31, seed=21)
        lam, funcs = dual_reference(panel, 3, 2)
        dec = decompose(panel, 3)
        assert np.allclose(lam[:5], dec.eigenvalues[:5], rtol=1e-8, atol=1e-12)
        for f1, f2 in zip(funcs, dec.eigenfunctions):
            assert np.max(np.abs(f1 - f2)) < 1e-6

    def test_span_route_matches_grid_operator(self):
        # Every operator is solved in span coordinates. On n < m,
        # n > m (the span is the whole grid, r = m) and noise-free
        # rank-two panels, the r span eigenvalues are the grid spectrum's
        # leading r and the rest of the grid spectrum is roundoff. At
        # n = 2000, m = 31 each curve Gram entry is a length-31 dot
        # product, so roundoff is largest against the rank tolerance.
        rank_two = generate_panel(FactorModelSpec(d=2, n=120, noise_terms=0, seed=3))
        tall = generate_panel(FactorModelSpec(d=2, n=2000, grid=uniform_grid(31),
                                              noise_terms=0, seed=3))
        cases = ((random_panel(40, 101, seed=31), 3, 40 - 1),
                 (random_panel(90, 31, seed=32), 4, 31), (rank_two, 5, 2), (tall, 5, 2))
        for panel, p, rank in cases:
            [exponent], [(_, [q], [z])] = _span_coordinates(panel.values[None],
                                                           panel.grid.weights, p)
            r = z.shape[1]
            assert r == rank and q.shape == (len(panel.grid), r) and z.shape == (panel.n, r)
            [op] = _reduced_operator(z[None], p)
            assert np.array_equal(op, op.T)
            # The coordinates are of the values over 2^exponent.
            assert exponent == panel.exponent
            lam = np.ldexp(_symmetric_solve(op)[::-1], 4 * panel.exponent)
            oracle = grid_operator_spectrum(panel, p)
            assert np.all(np.diff(lam) <= 0)
            assert np.max(np.abs(lam - oracle[:r])) <= 1e-12 * oracle[0]
            assert np.max(np.abs(oracle[r:]), initial=0.0) <= 1e-12 * oracle[0]

    def test_span_basis_builds_no_curve_gram(self):
        # n = 20,000 curves on m = 11 points: the pivoted Cholesky loop
        # keeps an 11 x n factor, so no n x n matrix (3.2 GB) is allocated.
        panel = random_panel(20_000, 11, seed=35)
        tracemalloc.start()
        try:
            _, [(_, q, z)] = _span_coordinates(panel.values[None], panel.grid.weights, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.shape == (1, 11, 11) and z.shape == (1, 20_000, 11)
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_decomposition_loadings_match_projection_with_zero_column_means(self):
        # The commands write dec.loadings and the bootstrap resamples them:
        # on n < m, n > m at full rank, a noise-free rank-two panel and
        # identical curves (r = 0) they are the centered curves' loadings
        # on the r eigenfunctions, in the curves' units, with column means zero.
        g = uniform_grid(31)
        rank_two = generate_panel(FactorModelSpec(d=2, n=120, noise_terms=0, seed=3))
        same = CurvePanel(grid=g, values=np.tile(np.cos(g.points), (12, 1)))
        cases = ((random_panel(40, 101, seed=33), 3, 39), (random_panel(90, 31, seed=34), 4, 31),
                 (rank_two, 5, 2), (same, 2, 0))
        for panel, p, r in cases:
            dec = decompose(panel, p)
            assert dec.loadings.shape == (panel.n, r) == (panel.n, len(dec.eigenfunctions))
            want = loadings(panel, dec.eigenfunctions)
            scale = np.max(np.abs(want), initial=0.0)
            assert np.max(np.abs(dec.loadings - want), initial=0.0) <= 1e-12 * scale
            largest = np.max(np.abs(dec.loadings), initial=0.0)
            assert np.max(np.abs(dec.loadings.mean(axis=0)), initial=0.0) <= 1e-14 * largest

    def test_stack_matches_each_panel_alone(self):
        # One stack per grid mixes ranks: d = 1..6 factor panels (r = 11..16),
        # a noise-free one (r = 2), identical curves (r = 0) and, on m = 31,
        # full-rank panels (r = 31). Each panel pivots past the others' stops,
        # so every result matches its panel solved alone bit for bit.
        g = uniform_grid(31)
        rng = np.random.default_rng(36)
        stacks = (
            (uniform_grid(), 5, [11, 12, 13, 14, 15, 16, 0, 2], [
                *(generate_panel(FactorModelSpec(d=d, n=100, seed=d)).values for d in range(1, 7)),
                np.tile(np.cos(uniform_grid().points), (100, 1)),
                generate_panel(FactorModelSpec(d=2, n=100, noise_terms=0, seed=3)).values,
            ]),
            (g, 3, [31, 0, 12, 31], [
                rng.standard_normal((90, 31)),
                np.tile(np.cos(g.points), (90, 1)),
                generate_panel(FactorModelSpec(d=2, n=90, grid=g, seed=2)).values,
                1e6 * rng.standard_normal((90, 31)),
            ]),
        )
        for grid, p, ranks, values in stacks:
            stack = np.array(values)
            solved = decompose_stack(stack, grid, p)
            spectra = operator_eigenvalues_stack(stack, grid, p)
            assert [len(funcs) for _, funcs, _ in solved] == ranks
            assert len(spectra) == len(values)
            for v, (lam, funcs, scores), raw in zip(values, solved, spectra):
                panel = CurvePanel(grid=grid, values=v)
                dec = decompose(panel, p)
                assert np.array_equal(lam, dec.eigenvalues)
                assert np.array_equal(funcs, dec.eigenfunctions)
                assert np.array_equal(scores, dec.loadings)
                assert np.array_equal(raw, operator_eigenvalues(panel, p))
        # A d = 1 study stack comes out of the draw non-contiguous, strides
        # (808, 9696, 8) at K 12, n 100: solved as it stands, it gives the
        # bits of its contiguous copy.
        strided = next(_value_stacks(FactorModelSpec(d=1, n=100), range(12)))
        assert strided.strides == (808, 9696, 8)
        contiguous = np.ascontiguousarray(strided)
        assert np.array_equal(operator_eigenvalues_stack(strided, uniform_grid(), 5),
                              operator_eigenvalues_stack(contiguous, uniform_grid(), 5))
        for got, want in zip(decompose_stack(strided, uniform_grid(), 5),
                             decompose_stack(contiguous, uniform_grid(), 5), strict=True):
            assert all(map(np.array_equal, got, want))

    def test_eigenvalue_count_bounded(self):
        for n, m, p in ((20, 101, 3), (80, 31, 5)):
            panel = random_panel(n, m, seed=n)
            lam = operator_eigenvalues(panel, p)
            count = np.sum(lam > 1e-10 * lam[0])
            assert count <= min(n - p, m)

    def test_scaling_curves_scales_eigenvalues_fourth_power(self):
        panel = random_panel(25, 41, seed=22)
        scaled = CurvePanel(grid=panel.grid, values=3.0 * panel.values)
        d1 = decompose(panel, 3)
        d2 = decompose(scaled, 3)
        keep = d1.eigenvalues > 1e-10 * d1.eigenvalues[0]
        assert np.allclose(
            d2.eigenvalues[keep], 3.0**4 * d1.eigenvalues[keep], rtol=1e-8
        )
        for f1, f2 in zip(d1.eigenfunctions[:2], d2.eigenfunctions[:2]):
            assert np.max(np.abs(f1 - f2)) < 1e-7

    def test_one_eigenfunction_per_eigenvalue(self):
        # n - p = 17 < r = 19 < m = 31: the spectrum keeps its m entries,
        # those past the rank r of the centered curves are exact zeros, and
        # each of the r others, clamped ones included, has an eigenfunction.
        panel = random_panel(20, 31, seed=26)
        dec = decompose(panel, 3)
        assert dec.eigenvalues.shape == (31,)
        assert dec.eigenfunctions.shape == (19, 31)
        assert np.all(dec.eigenvalues[19:] == 0.0)
        assert np.count_nonzero(dec.eigenvalues) < len(dec.eigenfunctions)
        # The lag budget is checked first: an oversized p reports the sample.
        with pytest.raises(InsufficientSampleError):
            decompose(panel, 20)

    def test_sign_convention_positive_peak(self):
        panel = random_panel(30, 51, seed=23)
        dec = decompose(panel, 3)
        for f in dec.eigenfunctions:
            assert f[np.argmax(np.abs(f))] > 0

    def test_eigenvalues_sorted_and_clamped(self):
        panel = random_panel(20, 31, seed=24)
        dec = decompose(panel, 3)
        lam = dec.eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam >= 0.0)

    def test_eigenfunctions_orthonormal_both_routes(self):
        # decompose returns one eigenfunction per dimension of the span of
        # the centered curves: r = m = 31 at n = 80, and r = 1 for the
        # noise-free one-factor panel. All r are orthonormal, and the
        # spectrum is exactly zero past r.
        rank_one = generate_panel(FactorModelSpec(d=1, n=30, noise_terms=0, seed=0))
        cases = (
            ("dual", random_panel(25, 51, seed=25), 4, 3),
            ("span", random_panel(80, 31, seed=25), 4, 31),
            ("span", rank_one, 2, 1),
        )
        for route, panel, p, count in cases:
            if route == "dual":
                _, funcs = dual_reference(panel, p, count)
            else:
                dec = decompose(panel, p)
                funcs = dec.eigenfunctions
                assert funcs.shape == (count, len(panel.grid))
                assert np.all(dec.eigenvalues[count:] == 0.0)
            w = panel.grid.weights
            gram = (funcs * w) @ funcs.T
            assert np.max(np.abs(gram - np.eye(count))) < 1e-8


class TestWideGrid:
    def test_wide_grid_matches_dual_and_selects_within_budget(self):
        # n = 200 curves on m = 2001 points: the dual has n - p = 195
        # eigenvalues, and every one past the panel's rank r = 12 is
        # roundoff. The span route solves 12 x 12 operators, so
        # select_dimension (B 200, d_max 4) stays within a 1 s budget; the
        # m x m grid operator took 4.2-5.4 s on a 2-vCPU Xeon.
        grid = uniform_grid(2001)
        panel = generate_panel(FactorModelSpec(d=2, n=200, grid=grid, seed=8))
        p = 5
        lam = decompose(panel, p).eigenvalues
        dual, _ = eigen_dual(dual_matrix(panel, p), gram_matrix(panel, 0, p))
        assert lam.shape == (2001,) and np.all(lam[12:] == 0.0)
        assert np.max(np.abs(lam[:195] - dual)) <= 1e-10 * dual[0]
        start = time.perf_counter()
        report = select_dimension(panel, p, BootstrapConfig(n_draws=200), d_max=4)
        elapsed = time.perf_counter() - start
        assert report.threshold_d == 2 and report.pvalues[1] == 0.0
        assert elapsed < 1.0, f"select_dimension took {elapsed:.2f} s"


class TestGridRefinement:
    # The factor model draws its scores and noise coordinates before it
    # touches the grid, so one seed gives the same curves sampled on any
    # grid, and refining m points to 2m - 1 moves the spectrum only by
    # quadrature error. Measured over this whole space (480 cases): the
    # leading ratios moved at most 2.2e-3 (d=4, m=21), and threshold_d
    # never changed.
    @settings(deadline=None, max_examples=20)
    @given(
        d=st.integers(1, 4),
        m=st.sampled_from([21, 41, 61]),
        seed=st.integers(0, 39),
    )
    def test_refined_grid_keeps_dimension_and_leading_ratios(self, d, m, seed):
        n, p = 200, 5
        results = []
        for points in (m, 2 * m - 1):
            spec = FactorModelSpec(d=d, n=n, grid=uniform_grid(points), seed=seed)
            lam = operator_eigenvalues(generate_panel(spec), p)
            results.append((threshold_estimate(lam, default_epsilon(lam, n)), lam[:d] / lam[0]))
        (coarse_d, coarse_ratios), (fine_d, fine_ratios) = results
        assert coarse_d == fine_d
        assert np.max(np.abs(coarse_ratios - fine_ratios)) < 1e-2
