import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedim.errors import (
    GridMismatchError,
    ParseError,
    ValidationError,
)
from curvedim.grids import (
    CurvePanel,
    Grid,
    mean_curve,
    read_float_rows,
    read_panel_csv,
    write_csv_rows,
    write_json,
    write_panel_csv,
)
from reference import gram_matrix, inner_product, lag_cov_kernel


def uniform_grid(m=201):
    return Grid.uniform(0.0, 1.0, m)


def random_panel(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return CurvePanel(grid=uniform_grid(m), values=rng.standard_normal((n, m)))


class TestGrid:
    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            Grid(np.array([1.0]))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            Grid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_trapezoid_weights_sum_to_length(self):
        g = Grid(np.array([0.0, 0.1, 0.4, 1.0]))
        assert np.isclose(g.weights.sum(), 1.0)


class TestInnerProduct:
    def test_zero_function(self):
        g = uniform_grid()
        z = np.zeros(len(g))
        assert inner_product(g, z, z) == 0.0

    def test_cos_sin_orthogonal(self):
        g = uniform_grid(201)
        f = np.sqrt(2) * np.cos(np.pi * g.points)
        h = np.sqrt(2) * np.sin(np.pi * g.points)
        assert abs(inner_product(g, f, h)) < 1e-6

    def test_cos_normalized(self):
        g = uniform_grid(201)
        f = np.sqrt(2) * np.cos(np.pi * g.points)
        assert abs(inner_product(g, f, f) - 1.0) < 1e-4

    @settings(deadline=None, max_examples=50)
    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 10_000),
    )
    def test_bilinear_and_symmetric(self, a, b, seed):
        g = uniform_grid(31)
        rng = np.random.default_rng(seed)
        f, h, k = rng.standard_normal((3, 31))
        lhs = inner_product(g, a * f + b * h, k)
        rhs = a * inner_product(g, f, k) + b * inner_product(g, h, k)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
        assert abs(inner_product(g, f, h) - inner_product(g, h, f)) <= 1e-12

    def test_refinement_is_second_order(self):
        # midpoint insertion m -> 2m-1 should cut the error by ~4
        exact = (np.e * (np.cos(1) + np.sin(1)) - 1) / 2
        errs = []
        for m in (51, 101):
            g = uniform_grid(m)
            errs.append(abs(inner_product(g, np.exp(g.points), np.cos(g.points)) - exact))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestCurvePanel:
    def test_needs_two_curves(self):
        g = uniform_grid(11)
        with pytest.raises(ValidationError):
            CurvePanel(grid=g, values=np.zeros((1, 11)))

    def test_rejects_nonfinite(self):
        g = uniform_grid(11)
        vals = np.zeros((3, 11))
        vals[1, 4] = np.nan
        with pytest.raises(ValidationError):
            CurvePanel(grid=g, values=vals)

    def test_width_must_match_grid(self):
        with pytest.raises(GridMismatchError):
            CurvePanel(grid=uniform_grid(11), values=np.zeros((3, 12)))


class TestMeanCurve:
    def test_identical_curves(self):
        g = uniform_grid(21)
        c = np.sin(g.points)
        panel = CurvePanel(grid=g, values=np.tile(c, (4, 1)))
        assert np.allclose(mean_curve(panel), c)

    def test_symmetric_pair_cancels(self):
        g = uniform_grid(21)
        panel = CurvePanel(grid=g, values=np.vstack([g.points, -g.points]))
        assert np.allclose(mean_curve(panel), 0.0)

    def test_matches_direct_summation(self):
        panel = random_panel(17, 23, seed=3)
        direct = np.zeros(23)
        for row in panel.values:
            direct = direct + row
        direct /= panel.n
        assert np.allclose(mean_curve(panel), direct, atol=1e-12)


class TestLagCovKernel:
    def test_identical_curves_give_zero(self):
        g = uniform_grid(21)
        panel = CurvePanel(grid=g, values=np.tile(np.cos(g.points), (6, 1)))
        for k in range(3):
            assert np.allclose(lag_cov_kernel(panel, k, 2).values, 0.0, atol=1e-14)

    def test_three_curve_hand_expansion(self):
        # Y1 = u, Y2 = 0, Y3 = 2u with p = 1: the mean is u, term t=1
        # vanishes, and the k=1 kernel is -(u v)/2.
        g = uniform_grid(21)
        u = g.points
        panel = CurvePanel(grid=g, values=np.vstack([u, np.zeros_like(u), 2 * u]))
        kern = lag_cov_kernel(panel, 1, 1)
        assert np.allclose(kern.values, -np.outer(u, u) / 2, atol=1e-12)

    def test_iid_noise_stays_in_envelope(self):
        n, m = 2000, 21
        bound = 5 / np.sqrt(n)
        inside = 0
        runs = 200
        for s in range(runs):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=424, spawn_key=(s,)))
            panel = CurvePanel(grid=uniform_grid(m), values=rng.standard_normal((n, m)))
            if np.max(np.abs(lag_cov_kernel(panel, 1, 1).values)) < bound:
                inside += 1
        assert inside >= 0.95 * runs

    def test_lag_zero_exactly_symmetric(self):
        panel = random_panel(20, 31, seed=9)
        v = lag_cov_kernel(panel, 0, 3).values
        assert np.array_equal(v, v.T)


class TestGramMatrix:
    def test_identical_curves_give_zero(self):
        g = uniform_grid(21)
        panel = CurvePanel(grid=g, values=np.tile(np.cos(g.points), (6, 1)))
        assert np.allclose(gram_matrix(panel, 1, 2), 0.0, atol=1e-14)

    def test_orthogonal_pair_diagonal(self):
        # sign-paired curves keep the panel mean at zero, so the k = 0
        # block over the first two (orthogonal) curves is diagonal with
        # their squared norms
        g = uniform_grid(201)
        f = np.sqrt(2) * np.cos(2 * np.pi * g.points)
        h = 2.0 * np.sqrt(2) * np.sin(2 * np.pi * g.points)
        panel = CurvePanel(grid=g, values=np.vstack([f, h, -f, -h]))
        gm = gram_matrix(panel, 0, 2)
        assert gm.shape == (2, 2)
        assert abs(gm[0, 1]) < 1e-8
        assert np.isclose(gm[0, 0], 1.0, atol=1e-4)
        assert np.isclose(gm[1, 1], 4.0, atol=1e-3)

    def test_psd_and_symmetric(self):
        for seed in range(5):
            panel = random_panel(25, 31, seed=seed)
            gm = gram_matrix(panel, 2, 4)
            assert np.allclose(gm, gm.T)
            eigs = np.linalg.eigvalsh(gm)
            assert eigs.min() >= -1e-10 * np.trace(gm)


class TestPanelCsv:
    def test_round_trip(self, tmp_path):
        panel = random_panel(5, 13, seed=1)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert np.array_equal(back.grid.points, panel.grid.points)
        assert np.array_equal(back.values, panel.values)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.0,0.5,1.0\n1,2,3\n4,5\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)

    def test_rejects_non_monotone_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("0.0,1.0,0.5\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)


class TestReadFloatRows:
    def test_comment_marker_is_not_a_comment(self):
        with pytest.raises(ParseError, match=r"^P: line 1: could not convert"):
            read_float_rows(["1,2 # c\n"], "P")

    @pytest.mark.parametrize("bad", ["nan", "-inf"])
    def test_non_finite_value_names_its_line(self, bad):
        lines = ["1,2\n", "\n", f"3,{bad}\n"]
        with pytest.raises(ParseError, match=r"^P: line 4: non-finite value$"):
            read_float_rows(lines, "P", first_line=2)

    def test_underscore_digits_parse_as_python_floats(self):
        assert read_float_rows(["1_0,2\n"], "P").tolist() == [[10.0, 2.0]]

    def test_single_row_keeps_two_dimensions(self):
        assert read_float_rows(["0.5,1.5,2.5\n"], "P").shape == (1, 3)
        assert read_float_rows(["7\n"], "P", columns=1).shape == (1, 1)

    @pytest.mark.parametrize("lines", [[], ["\n"], ["  \n", "\t\n"]])
    @pytest.mark.parametrize("columns", [None, 2])
    def test_no_data_gives_empty_rows_without_warning(self, lines, columns):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = read_float_rows(lines, "P", columns=columns)
        assert rows.shape == (0, columns or 0)


class TestCsvRows:
    def test_integers_print_as_str_and_reals_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        row = (1, np.int64(2), 0.1, np.float64(1 / 3), 2.0)
        write_csv_rows(path, [row], ["a", "b", "c", "d", "e"])
        assert path.read_text() == "a,b,c,d,e\n1,2,0.1,0.3333333333333333,2.0\n"

    def test_float_array_rows_match_cell_by_cell_format(self, tmp_path):
        rows = np.random.default_rng(3).standard_normal((4, 7)) * 10.0 ** np.arange(-3, 4)
        rows[0, 0] = -0.0
        path = tmp_path / "rows.csv"
        write_csv_rows(path, rows)
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        assert path.read_text() == want
        assert np.array_equal(read_float_rows(path.read_text().splitlines(), "P"), rows)

    def test_zero_columns_keep_header_and_row_lines(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv_rows(path, np.empty((2, 0)), [])
        assert path.read_text() == "\n\n\n"


class TestWriteJson:
    def test_numpy_values_write_the_bytes_of_their_tolist(self, tmp_path):
        rng = np.random.default_rng(5)
        vector = rng.standard_normal(7) * 10.0 ** np.arange(-3, 4)
        vector[0] = -0.0
        payload = {
            "vector": vector,
            "matrix": rng.standard_normal((3, 2)),
            "float": np.float64(1 / 3),
            "int": np.int64(12),
            "bool": np.bool_(True),
            "nested": {"10": [np.float64(2.5), np.int64(-1)], "9": np.bool_(False)},
        }
        as_python = {
            "vector": vector.tolist(),
            "matrix": payload["matrix"].tolist(),
            "float": 1 / 3,
            "int": 12,
            "bool": True,
            "nested": {"10": [2.5, -1], "9": False},
        }
        write_json(tmp_path / "numpy.json", payload)
        write_json(tmp_path / "python.json", as_python)
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
