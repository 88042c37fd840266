import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvedim import cli, dimension, eigen
from curvedim.cli import main
from curvedim.eigen import write_loadings_csv
from curvedim.grids import CurvePanel, read_panel_csv, write_panel_csv
from curvedim.simulation import FactorModelSpec, generate_panel
from fixtures import synthetic_tick_days, write_tick_manifest


@pytest.fixture(scope="module")
def two_factor_panel_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("panels") / "panel.csv"
    write_panel_csv(generate_panel(FactorModelSpec(d=2, n=600, seed=11)), path)
    return path


def read_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)["error"]


@pytest.fixture
def eigensolves(monkeypatch):
    """Operators built for an eigensolve, in call order, as the shape of
    the span coordinates (n x r) each was built from.

    Observed panels build their operators through the one kernel
    ``eigen._reduced_operator``, a stack at a time; bootstrap replicates
    do not.
    """
    built = []
    build = eigen._reduced_operator

    def counted(z, p):
        built.extend([z.shape[1:]] * len(z))
        return build(z, p)

    monkeypatch.setattr(eigen, "_reduced_operator", counted)
    return built


@pytest.fixture
def replicate_draws(monkeypatch):
    """Replicate indices b whose resample generator ``dimension`` built."""
    built = []
    build = dimension._replicate_rng

    def counted(seed, replicate):
        built.append(replicate)
        return build(seed, replicate)

    monkeypatch.setattr(dimension, "_replicate_rng", counted)
    return built


@pytest.fixture
def replicate_solves(monkeypatch):
    """Shapes of the batched replicate eigensolves ``dimension`` made:
    (hypotheses solved, r, r) per replicate."""
    solved = []
    solve = dimension._symmetric_solve

    def counted(a):
        solved.append(a.shape)
        return solve(a)

    monkeypatch.setattr(dimension, "_symmetric_solve", counted)
    return solved


@pytest.fixture
def span_bases(monkeypatch):
    """Span bases ``eigen`` built, as the panel size of each."""
    built = []
    build = eigen._span_coordinates

    def counted(values, weights, p):
        built.extend([values.shape[1]] * len(values))
        return build(values, weights, p)

    monkeypatch.setattr(eigen, "_span_coordinates", counted)
    return built


class TestIdentify:
    def test_two_factor_panel_reports_dimension_two(
        self, two_factor_panel_csv, tmp_path, eigensolves, span_bases, replicate_draws,
        replicate_solves,
    ):
        out = tmp_path / "out"
        rc = main(
            [
                "identify",
                "--panel", str(two_factor_panel_csv),
                "--d-max", "4",
                "--B", "100",
                "--seed", "5",
                "--output-dir", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "dimension_report.json").read_text())
        assert report["d_hat"] == 2
        assert report["threshold_d"] == 2
        assert set(report["pvalues"]) == {"1", "2", "3", "4"}
        for name in (
            "eigenfunctions.csv",
            "loadings.csv",
            "decomposition.json",
            "manifest.json",
        ):
            assert (out / name).exists()
        funcs = read_panel_csv(out / "eigenfunctions.csv")
        assert funcs.n == 2
        loadings = (out / "loadings.csv").read_text().splitlines()
        assert loadings[0] == "component_1,component_2"
        assert len(loadings) == 601
        # One solve of the panel's rank-12 span operator for the report;
        # the tests and the output files reuse it.
        assert eigensolves == [(600, 12)]
        # Its span basis serves every hypothesis, and each replicate's rows
        # are drawn once and solved once for all four hypotheses.
        assert span_bases == [600]
        assert replicate_draws == list(range(100))
        assert replicate_solves == [(4, 12, 12)] * 100

    def test_zero_rank_hypotheses_draw_no_replicates(
        self, tmp_path, eigensolves, span_bases, replicate_draws, replicate_solves
    ):
        # Noise-free two-factor panel: the curves span two dimensions, so
        # eigenvalues 3 and 4 are exactly zero and their hypotheses are
        # answered without a bootstrap replicate.
        panel = tmp_path / "rank2.csv"
        write_panel_csv(generate_panel(FactorModelSpec(d=2, n=120, noise_terms=0)), panel)
        out = tmp_path / "out"
        rc = main(["identify", "--panel", str(panel), "--d-max", "4", "--B", "20",
                   "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "dimension_report.json").read_text())
        assert report["pvalues"]["3"] == report["pvalues"]["4"] == 1.0
        assert report["d_hat"] == 2
        # The panel's rank is two: the batched solve of each replicate holds
        # the hypotheses d0 = 0 and 1 only, as 2 x 2 span operators.
        assert eigensolves == [(120, 2)]
        assert len(span_bases) == 1
        assert replicate_draws == list(range(20))
        assert replicate_solves == [(2, 2, 2)] * 20

    def test_malformed_panel_exits_one_with_parse_kind(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,number\n1,2,3\n")
        rc = main(["identify", "--panel", str(bad), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert read_error(capsys)["kind"] == "parse"

    def test_missing_panel_exits_one_and_leaves_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["identify", "--panel", str(tmp_path / "missing.csv"), "--output-dir", str(out)])
        assert rc == 1
        assert read_error(capsys)["kind"] == "io"
        assert not out.exists()

    def test_excessive_lag_exits_one_with_insufficient_kind(
        self, two_factor_panel_csv, tmp_path, capsys
    ):
        rc = main(
            [
                "identify",
                "--panel", str(two_factor_panel_csv),
                "--p", "700",
                "--output-dir", str(tmp_path / "o"),
            ]
        )
        assert rc == 1
        assert read_error(capsys)["kind"] == "insufficient-sample"

    def test_eigensolver_failure_exits_two_with_numerical_failure_kind(
        self, two_factor_panel_csv, tmp_path, capsys, monkeypatch
    ):
        # A LAPACK failure is a numerical failure, not a user error: exit 2.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        out = tmp_path / "o"
        rc = main(["identify", "--panel", str(two_factor_panel_csv), "--B", "20",
                   "--output-dir", str(out)])
        assert rc == 2
        error = read_error(capsys)
        assert error["kind"] == "numerical-failure"
        assert "symmetric eigensolver failed" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    def test_curves_past_double_range_exit_one_with_validation_kind(
        self, tmp_path, capsys, scale
    ):
        # The leading eigenvalue scales as the fourth power of the curves:
        # about 1e-400 or 1e400 here, which no double holds.
        panel = generate_panel(FactorModelSpec(d=2, n=300, seed=5))
        path = tmp_path / "scaled.csv"
        write_panel_csv(CurvePanel(grid=panel.grid, values=scale * panel.values), path)
        out = tmp_path / "o"
        rc = main(["identify", "--panel", str(path), "--B", "50", "--d-max", "4",
                   "--output-dir", str(out)])
        assert rc == 1
        error = read_error(capsys)
        assert error["kind"] == "validation"
        assert "rescale the curves" in error["message"]
        assert not out.exists()


class TestTestDim:
    def test_writes_pvalue_json(
        self, two_factor_panel_csv, tmp_path, capsys, eigensolves, replicate_draws,
        replicate_solves,
    ):
        out = tmp_path / "td"
        rc = main(
            [
                "test-dim",
                "--panel", str(two_factor_panel_csv),
                "--d0", "2",
                "--B", "50",
                "--output-dir", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "test_dim.json").read_text())
        assert payload["tested_rank"] == 3
        assert 0.0 <= payload["p_value"] <= 1.0
        assert "p-value" in capsys.readouterr().out
        # One observed solve gives the eigenvalue and the fit; then one
        # draw and one solve of the one hypothesis per replicate.
        assert eigensolves == [(600, 12)]
        assert replicate_draws == list(range(50))
        assert replicate_solves == [(1, 12, 12)] * 50

    def test_negative_d0_exits_one_with_bounds_kind(self, two_factor_panel_csv, tmp_path, capsys):
        out = tmp_path / "td"
        rc = main(["test-dim", "--panel", str(two_factor_panel_csv), "--d0", "-1", "--B", "2",
                   "--output-dir", str(out)])
        assert rc == 1
        assert read_error(capsys)["kind"] == "bounds"
        assert not out.exists()

    def test_zero_observed_eigenvalue_reported_clamped(self, tmp_path):
        # Noise-free two-factor panel: eigenvalue 3 is zero to working
        # precision, and the report shows the value the p-value used.
        panel = tmp_path / "rank2.csv"
        spec = FactorModelSpec(d=2, n=300, noise_terms=0, seed=0)
        write_panel_csv(generate_panel(spec), panel)
        out = tmp_path / "td"
        rc = main(["test-dim", "--panel", str(panel), "--d0", "2", "--output-dir", str(out)])
        assert rc == 0
        payload = json.loads((out / "test_dim.json").read_text())
        assert payload["observed_eigenvalue"] == 0.0
        assert payload["p_value"] == 1.0

    def test_zero_observed_eigenvalue_builds_no_span_basis(
        self, tmp_path, span_bases, replicate_draws
    ):
        # The one hypothesis is answered from the clamped eigenvalue alone:
        # the test builds no basis of the curves' span and draws no
        # replicate. The one basis is the observed solve's.
        panel = tmp_path / "rank2.csv"
        write_panel_csv(generate_panel(FactorModelSpec(d=2, n=120, noise_terms=0)), panel)
        out = tmp_path / "td"
        rc = main(["test-dim", "--panel", str(panel), "--d0", "2", "--B", "20",
                   "--output-dir", str(out)])
        assert rc == 0
        assert json.loads((out / "test_dim.json").read_text())["p_value"] == 1.0
        assert span_bases == [120]
        assert replicate_draws == []


class TestSimulate:
    def test_unknown_study_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("study", ["eigen-gap", "bootstrap-power", "subspace-error", "rate"])
    def test_replications_below_one_exit_one_with_validation_kind(
        self, study, tmp_path, capsys
    ):
        for count in ("0", "-3"):
            out = tmp_path / count
            rc = main(["simulate", study, "--replications", count, "--output-dir", str(out)])
            assert rc == 1
            assert read_error(capsys)["kind"] == "validation"
            assert not any(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "command",
        [
            ["identify", "--B", "2", "--panel", "{panel}"],
            ["test-dim", "--d0", "1", "--B", "2", "--panel", "{panel}"],
            ["var-fit", "--loadings", "{loadings}"],
            ["density", "--manifest", "{manifest}"],
            ["simulate", "eigen-gap"],
            ["simulate", "bootstrap-power"],
            ["simulate", "subspace-error"],
            ["simulate", "rate"],
        ],
        ids=["identify", "test-dim", "var-fit", "density", "eigen-gap", "bootstrap-power",
             "subspace-error", "rate"],
    )
    def test_negative_seed_exits_one_with_validation_kind(
        self, command, manifest_inputs, tmp_path, capsys
    ):
        # SeedSequence rejects negative entropy, and every command takes
        # --seed, including the two that draw nothing (var-fit, and density
        # without --identify): each must say so as a JSON error.
        command = [arg.format(**manifest_inputs) for arg in command]
        out = tmp_path / "out"
        rc = main([*command, "--seed", "-1", "--output-dir", str(out)])
        assert rc == 1
        err = read_error(capsys)
        assert err["kind"] == "validation"
        assert "seed" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "study, flag",
        [
            ("rate", "--sample-sizes"),
            ("eigen-gap", "--d-values"),
            ("subspace-error", "--n-values"),
            ("bootstrap-power", "--n-values"),
            ("eigen-gap", "--n-values"),
        ],
    )
    def test_empty_integer_list_exits_one_with_validation_kind(
        self, study, flag, tmp_path, capsys
    ):
        # A repeated value would give two cells the same key, and the
        # second would overwrite the first.
        for text, named in ((",", ","), ("80,80", "80")):
            out = tmp_path / "out"
            rc = main(["simulate", study, flag, text, "--replications", "1", "--B", "10",
                       "--output-dir", str(out)])
            assert rc == 1
            err = read_error(capsys)
            assert err["kind"] == "validation"
            assert named in err["message"]
            assert not out.exists()

    def test_rate_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "rate"
        rc = main(
            [
                "simulate", "rate",
                "--replications", "3",
                "--sample-sizes", "100,200",
                "--seed", "4",
                "--output-dir", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "rate_study.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + one row per (n, replication)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4
        assert manifest["config"]["reference_eigenvalue"] == pytest.approx(4 / 9, abs=1e-3)
        assert manifest["artifact"]["name"] == "curvedim"

    def test_same_seed_is_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(
                [
                    "simulate", "rate",
                    "--replications", "2",
                    "--sample-sizes", "100",
                    "--seed", "9",
                    "--output-dir", str(out),
                ]
            )
            blobs.append((out / "rate_study.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_eigen_gap_csv_has_ten_eigenvalue_columns(self, tmp_path):
        out = tmp_path / "gap"
        rc = main(
            [
                "simulate", "eigen-gap",
                "--d-values", "2",
                "--n-values", "100",
                "--replications", "2",
                "--output-dir", str(out),
            ]
        )
        assert rc == 0
        header = (out / "figure1_eigenvalues.csv").read_text().splitlines()[0]
        assert header.count("eigenvalue_") == 10

    def test_subspace_error_csv(self, tmp_path, eigensolves):
        out = tmp_path / "sub"
        rc = main(
            [
                "simulate", "subspace-error",
                "--d-values", "2",
                "--n-values", "100",
                "--replications", "2",
                "--output-dir", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "figure3_dtilde.csv").read_text().splitlines()
        assert lines[0] == "d,n,replication,d_hat,dtilde,dtilde_adaptive"
        assert len(lines) == 3
        assert len(eigensolves) == 2  # one per replicate

    def test_ignored_threads_flag_leaves_output_unchanged(self, tmp_path):
        blobs = []
        for extra in ([], ["--threads", "2"]):
            out = tmp_path / f"sub{len(extra)}"
            argv = ["simulate", "subspace-error", "--d-values", "2", "--n-values", "60",
                    "--replications", "2", "--p", "3", "--output-dir", str(out)]
            assert main(argv + extra) == 0
            blobs.append((out / "figure3_dtilde.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "study, flag, value",
        [
            ("rate", "--p", "3"),
            ("eigen-gap", "--B", "10"),
            ("bootstrap-power", "--d-values", "2"),
            ("subspace-error", "--sample-sizes", "100"),
        ],
    )
    def test_study_rejects_flag_it_does_not_read(self, study, flag, value, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", study, flag, value, "--replications", "1",
                  "--output-dir", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed", "--replications", "--output-dir"])
    def test_flag_before_study_name_says_where_flags_go(self, flag, tmp_path, capsys):
        out = tmp_path / "out"
        value = str(out) if flag == "--output-dir" else "3"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", flag, value, "rate", "--output-dir", str(out)])
        assert exc.value.code == 2
        assert "study flags follow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "study, flags",
        [
            ("eigen-gap", ["--d-values", "2"]),
            ("bootstrap-power", ["--d", "2", "--B", "10"]),
            ("subspace-error", ["--d-values", "2"]),
        ],
    )
    def test_sample_no_larger_than_lag_budget_exits_one_with_insufficient_kind(
        self, study, flags, tmp_path, capsys
    ):
        # The lag budget is checked where the operator is built, the same
        # way for every study as for identify.
        out = tmp_path / "out"
        rc = main(["simulate", study, *flags, "--n-values", "5", "--p", "5",
                   "--replications", "1", "--output-dir", str(out)])
        assert rc == 1
        assert read_error(capsys)["kind"] == "insufficient-sample"
        assert not out.exists()

    def test_bootstrap_power_csv(self, tmp_path):
        out = tmp_path / "bp"
        rc = main(
            [
                "simulate", "bootstrap-power",
                "--d", "1",
                "--n-values", "80",
                "--replications", "2",
                "--B", "10",
                "--p", "2",
                "--output-dir", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "figure2_pvalues.csv").read_text().splitlines()
        assert lines[0] == "d,n,tested_rank,replication,p_value"
        assert len(lines) == 1 + 2 * 2


@pytest.fixture(scope="module")
def tick_manifest(tmp_path_factory):
    days = synthetic_tick_days(40, seed=3, ticks_per_day=300)
    return write_tick_manifest(days, tmp_path_factory.mktemp("ticks"))


class TestDensityCommand:

    def test_panel_and_metadata(self, tick_manifest, tmp_path):
        out = tmp_path / "den"
        rc = main(
            ["density", "--manifest", str(tick_manifest), "--output-dir", str(out)]
        )
        assert rc == 0
        panel = read_panel_csv(out / "panel.csv")
        assert panel.n == 40
        assert len(panel.grid) == 201
        meta = json.loads((out / "day_metadata.json").read_text())
        assert len(meta["days"]) == 40

    def test_chained_identify_and_var_fit(self, tick_manifest, tmp_path):
        out = tmp_path / "chain"
        rc = main(
            [
                "density",
                "--manifest", str(tick_manifest),
                "--identify",
                "--var-fit",
                "--d-max", "3",
                "--B", "50",
                "--max-order", "4",
                "--output-dir", str(out),
            ]
        )
        assert rc == 0
        for name in ("dimension_report.json", "var_fit.json", "diagnostics.json"):
            assert (out / name).exists()
        fit = json.loads((out / "var_fit.json").read_text())
        assert min(float(v) for v in fit["aic_table"].values()) == 0.0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert set(diag["portmanteau"]) <= {"1", "3", "5"}

    def test_manifest_records_identify_and_var_fit_flags(self, tick_manifest, tmp_path):
        # Two runs that differ only in --B must say so in their manifests.
        configs = []
        for b in ("20", "30"):
            out = tmp_path / b
            rc = main(["density", "--manifest", str(tick_manifest), "--identify",
                       "--d-max", "2", "--B", b, "--output-dir", str(out)])
            assert rc == 0
            configs.append(json.loads((out / "manifest.json").read_text())["config"])
        assert [c["B"] for c in configs] == [20, 30]
        assert configs[0] | {"B": 30} == configs[1]
        assert {k: configs[0][k] for k in ("p", "alpha", "d_max", "max_order")} == {
            "p": 5, "alpha": 0.05, "d_max": 2, "max_order": 10}

    def test_missing_opening_names_day_and_exits_one(self, tmp_path, capsys):
        days = synthetic_tick_days(5, seed=8, ticks_per_day=100)
        from curvedim.density import TickDay

        days[2] = TickDay(
            day_id="day003",
            times=np.array([days[2].times[-1]]),
            prices=np.array([50.0]),
        )
        manifest = write_tick_manifest(days, tmp_path / "ticks")
        rc = main(
            ["density", "--manifest", str(manifest), "--output-dir", str(tmp_path / "o")]
        )
        assert rc == 1
        err = read_error(capsys)
        assert err["kind"] == "missing-opening"
        assert err["message"].count("day003") == 1

    def test_swapped_tick_columns_exit_one_with_parse_kind(self, tmp_path, capsys):
        from curvedim.density import TickDay

        # Rising prices keep the swapped file's "timestamps" in order, so
        # only the header can tell the columns apart.
        days = synthetic_tick_days(5, seed=8, ticks_per_day=100)
        times = days[2].times
        days[2] = TickDay("day003", times, np.linspace(100.0, 101.0, times.size))
        manifest = write_tick_manifest(days, tmp_path / "ticks")
        day = manifest.parent / "day003.csv"
        header, *rows = day.read_text().splitlines()
        swapped = [",".join(reversed(line.split(","))) for line in [header, *rows]]
        day.write_text("\n".join(swapped) + "\n")
        for flags in ([], ["--skip-bad-days"]):
            out = tmp_path / f"o{len(flags)}"
            rc = main(["density", "--manifest", str(manifest), *flags,
                       "--output-dir", str(out)])
            assert rc == 1
            err = read_error(capsys)
            assert err["kind"] == "parse"
            assert "day003.csv" in err["message"]
            assert not out.exists()

    def test_skip_bad_days_continues(self, tmp_path):
        days = synthetic_tick_days(5, seed=8, ticks_per_day=100)
        from curvedim.density import TickDay

        days[2] = TickDay(
            day_id="day003",
            times=np.array([days[2].times[-1]]),
            prices=np.array([50.0]),
        )
        manifest = write_tick_manifest(days, tmp_path / "ticks")
        out = tmp_path / "ok"
        rc = main(
            [
                "density",
                "--manifest", str(manifest),
                "--skip-bad-days",
                "--output-dir", str(out),
            ]
        )
        assert rc == 0
        assert read_panel_csv(out / "panel.csv").n == 4

    @pytest.mark.parametrize(
        "payload",
        [[], {"days": [{"id": "a", "file": 3}]}, {"days": [{"id": True, "file": "a.csv"}]}],
        ids=["list", "file-not-string", "id-bool"],
    )
    def test_malformed_manifest_exits_one_with_parse_kind(self, tmp_path, capsys, payload):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "o"
        rc = main(["density", "--manifest", str(manifest), "--output-dir", str(out)])
        assert rc == 1
        assert read_error(capsys)["kind"] == "parse"
        assert not out.exists()

    def test_failed_var_fit_leaves_no_output_dir(self, tick_manifest, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(
            ["density", "--manifest", str(tick_manifest), "--identify", "--var-fit",
             "--d-max", "3", "--B", "50", "--max-order", "-1", "--output-dir", str(out)]
        )
        assert rc == 1
        assert read_error(capsys)["kind"] == "validation"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--var-fit"],
            ["--identify", "--var-fit", "--d-max", "0"],
            ["--multiplier", "0", "--skip-bad-days"],
            ["--multiplier", "-1", "--skip-bad-days"],
            ["--multiplier", "nan", "--skip-bad-days"],
            ["--multiplier", "inf", "--skip-bad-days"],
        ],
        ids=["var-fit-without-identify", "var-fit-no-components", "multiplier-zero",
             "multiplier-negative", "multiplier-nan", "multiplier-inf"],
    )
    def test_invalid_request_exits_one_and_leaves_no_output_dir(
        self, tick_manifest, tmp_path, capsys, extra
    ):
        out = tmp_path / "o"
        rc = main(["density", "--manifest", str(tick_manifest), *extra, "--B", "20",
                   "--output-dir", str(out)])
        assert rc == 1
        assert read_error(capsys)["kind"] == "validation"
        assert not out.exists()

    def test_integer_day_ids_are_accepted(self, tmp_path):
        manifest = write_tick_manifest(
            synthetic_tick_days(4, seed=8, ticks_per_day=100), tmp_path / "ticks"
        )
        payload = json.loads(manifest.read_text())
        for i, entry in enumerate(payload["days"]):
            entry["id"] = 20240102 + i
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "o"
        rc = main(["density", "--manifest", str(manifest), "--output-dir", str(out)])
        assert rc == 0
        assert read_panel_csv(out / "panel.csv").n == 4


class TestVarFitCommand:
    def test_fit_from_loadings_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        x = np.zeros((800, 2))
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        for t in range(1, 800):
            x[t] = a @ x[t - 1] + rng.standard_normal(2)
        path = tmp_path / "loadings.csv"
        with open(path, "w") as fh:
            fh.write("component_1,component_2\n")
            for row in x:
                fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")
        out = tmp_path / "var"
        rc = main(
            ["var-fit", "--loadings", str(path), "--max-order", "3",
             "--output-dir", str(out)]
        )
        assert rc == 0
        fit = json.loads((out / "var_fit.json").read_text())
        assert fit["order"] >= 1
        mats = fit["coefficient_matrices"]
        assert np.asarray(mats["1"]).shape == (2, 2)

    def test_header_after_leading_blank_line(self, tmp_path):
        series = np.random.default_rng(10).standard_normal((60, 2))
        plain = tmp_path / "plain.csv"
        write_loadings_csv(series, plain)
        padded = tmp_path / "padded.csv"
        padded.write_text("\n" + plain.read_text())
        written = []
        for path in (plain, padded):
            out = tmp_path / path.stem
            assert main(["var-fit", "--loadings", str(path), "--max-order", "2",
                         "--output-dir", str(out)]) == 0
            written.append((out / "var_fit.json").read_bytes())
        assert written[0] == written[1]

    def test_malformed_first_row_is_data_not_a_header(self, tmp_path, capsys):
        # A first line with a number in it is a data row: its bad field is
        # a parse error, not a header that drops the row.
        path = tmp_path / "loadings.csv"
        path.write_text("0.1,0.2x\n0.3,0.4\n0.5,0.6\n")
        out = tmp_path / "o"
        rc = main(["var-fit", "--loadings", str(path), "--output-dir", str(out)])
        assert rc == 1
        err = read_error(capsys)
        assert err["kind"] == "parse"
        assert f"{path}: line 1:" in err["message"]
        assert not out.exists()

    def test_nonfinite_loading_exits_one_with_parse_kind(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        path = tmp_path / "loadings.csv"
        rows = [",".join(repr(float(v)) for v in row) for row in rng.standard_normal((50, 2))]
        rows[9] = "nan,0.5"
        path.write_text("component_1,component_2\n" + "\n".join(rows) + "\n")
        rc = main(
            ["var-fit", "--loadings", str(path), "--max-order", "1",
             "--output-dir", str(tmp_path / "o")]
        )
        assert rc == 1
        err = read_error(capsys)
        assert err["kind"] == "parse"
        assert f"{path}: line 11" in err["message"]

    def test_rows_wider_than_header_exit_one_with_parse_kind(self, tmp_path, capsys):
        path = tmp_path / "loadings.csv"
        rows = np.random.default_rng(9).standard_normal((50, 3))
        path.write_text("component_1,component_2\n"
                        + "".join(",".join(map(repr, map(float, r))) + "\n" for r in rows))
        out = tmp_path / "o"
        rc = main(["var-fit", "--loadings", str(path), "--output-dir", str(out)])
        assert rc == 1
        err = read_error(capsys)
        assert err["kind"] == "parse"
        assert f"{path}: line 2: expected 2 columns" in err["message"]
        assert not out.exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        rc = main(
            ["var-fit", "--loadings", str(tmp_path / "none.csv"),
             "--output-dir", str(tmp_path / "o")]
        )
        assert rc == 1
        assert read_error(capsys)["kind"] == "io"

    @pytest.mark.parametrize(
        "rows, max_order, kind, code",
        [(50, "-1", "validation", 1), (3, "5", "validation", 1),
         (50, "1", "degenerate-series", 1), (50, "1000000000", "validation", 1),
         (50, "1", "conditioning", 2)],
        ids=["negative-order", "too-short", "constant-column", "order-past-length",
             "identical-columns"],
    )
    def test_failed_fit_leaves_no_output_dir(
        self, tmp_path, capsys, rows, max_order, kind, code
    ):
        series = np.random.default_rng(8).standard_normal((rows, 2))
        if kind == "degenerate-series":
            series[:, 1] = 1.0  # fits, but its Ljung-Box diagnostic is undefined
        if kind == "conditioning":
            # A singular moment matrix is a numerical failure, not a user error.
            series[:, 1] = series[:, 0]
        path = tmp_path / "loadings.csv"
        write_loadings_csv(series, path)
        out = tmp_path / "o"
        rc = main(
            ["var-fit", "--loadings", str(path), "--max-order", max_order,
             "--output-dir", str(out)]
        )
        assert rc == code
        assert read_error(capsys)["kind"] == kind
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_loadings_past_the_double_range_exit_one_naming_the_scale(
        self, tmp_path, capfd, scale
    ):
        # The innovation covariance would be about 1e-320 or 1e320.
        path = tmp_path / "loadings.csv"
        write_loadings_csv(np.random.default_rng(8).standard_normal((250, 3)) * scale, path)
        out = tmp_path / "o"
        assert main(["var-fit", "--loadings", str(path), "--output-dir", str(out)]) == 1
        [line] = capfd.readouterr().err.splitlines()  # the JSON report alone
        err = json.loads(line)["error"]
        assert err["kind"] == "validation"
        assert "series values of magnitude" in err["message"]
        assert not out.exists()

    def test_zero_component_loadings_exit_one_naming_no_components(
        self, two_factor_panel_csv, tmp_path, capsys
    ):
        report = tmp_path / "report"
        assert main(["identify", "--panel", str(two_factor_panel_csv), "--d-max", "0",
                     "--output-dir", str(report)]) == 0
        rc = main(["var-fit", "--loadings", str(report / "loadings.csv"),
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        err = read_error(capsys)
        assert err["kind"] == "parse"
        assert "holds no components" in err["message"]
        # An empty file is still told apart from a zero-component one.
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["var-fit", "--loadings", str(empty), "--output-dir", str(tmp_path / "o")]) == 1
        assert "no loading rows" in read_error(capsys)["message"]


@pytest.fixture(scope="module")
def manifest_inputs(two_factor_panel_csv, tick_manifest, tmp_path_factory):
    loadings = tmp_path_factory.mktemp("loadings") / "loadings.csv"
    write_loadings_csv(np.random.default_rng(8).standard_normal((60, 2)), loadings)
    return {"panel": str(two_factor_panel_csv), "manifest": str(tick_manifest),
            "loadings": str(loadings)}


# The rate study's operator eigenvalue on its grid; 4/9 analytically.
REFERENCE_EIGENVALUE = 0.44444444444444464
DENSITY_DESIGN = {"interval_minutes": 5.0, "session": [34200.0, 57600.0],
                  "support": [-0.002, 0.002], "grid_points": 201}

# Each command's whole manifest record, input paths by file name: the
# flags it parsed, and the fixed design values it applied.
MANIFEST_PINS = {
    "identify": (
        "identify --panel {panel} --d-max 2 --B 10 --seed 3",
        "identify", 3,
        {"panel": "panel.csv", "p": 5, "B": 10, "alpha": 0.05, "d_max": 2},
    ),
    "test-dim": (
        "test-dim --panel {panel} --d0 1 --p 4 --B 10 --alpha 0.1",
        "test-dim", 0,
        {"panel": "panel.csv", "d0": 1, "p": 4, "B": 10, "alpha": 0.1},
    ),
    "var-fit": (
        "var-fit --loadings {loadings} --max-order 2 --seed 7",
        "var-fit", 7,
        {"loadings": "loadings.csv", "max_order": 2},
    ),
    "density": (
        "density --manifest {manifest} --multiplier 1.5",
        "density", 0,
        {"manifest": "ticks.json", "multiplier": 1.5, "skip_bad_days": False,
         "identify": False, "var_fit": False, "p": 5, "B": 200, "alpha": 0.05,
         "d_max": 10, "max_order": 10, **DENSITY_DESIGN},
    ),
    "density-identify-var-fit": (
        "density --manifest {manifest} --skip-bad-days --identify --var-fit --p 3"
        " --d-max 2 --B 20 --max-order 3 --seed 2",
        "density", 2,
        {"manifest": "ticks.json", "multiplier": 1.0, "skip_bad_days": True,
         "identify": True, "var_fit": True, "p": 3, "B": 20, "alpha": 0.05,
         "d_max": 2, "max_order": 3, **DENSITY_DESIGN},
    ),
    "eigen-gap": (
        "simulate eigen-gap --p 2 --d-values 2 --n-values 60 --replications 1 --seed 1",
        "simulate eigen-gap", 1,
        {"study": "eigen-gap", "p": 2, "replications": 1, "d_values": [2],
         "n_values": [60]},
    ),
    "bootstrap-power": (
        "simulate bootstrap-power --p 2 --d 1 --n-values 80 --B 10 --replications 1",
        "simulate bootstrap-power", 0,
        {"study": "bootstrap-power", "p": 2, "replications": 1, "d": 1,
         "n_values": [80], "B": 10},
    ),
    "subspace-error": (
        "simulate subspace-error --p 3 --d-values 2,4 --n-values 60 --replications 1",
        "simulate subspace-error", 0,
        {"study": "subspace-error", "p": 3, "replications": 1, "d_values": [2, 4],
         "n_values": [60]},
    ),
    "subspace-error-threads": (
        "simulate subspace-error --p 3 --d-values 2,4 --n-values 60 --replications 1"
        " --threads 2",
        "simulate subspace-error", 0,
        {"study": "subspace-error", "p": 3, "replications": 1, "d_values": [2, 4],
         "n_values": [60]},
    ),
    "rate": (
        "simulate rate --sample-sizes 100,200 --replications 1 --seed 4",
        "simulate rate", 4,
        {"study": "rate", "replications": 1, "sample_sizes": [100, 200], "p": 1,
         "ar_coefficient": 0.5,
         "reference_eigenvalue": pytest.approx(REFERENCE_EIGENVALUE, rel=1e-9),
         "reference_eigenvalue_analytic": pytest.approx(4 / 9, rel=1e-12)},
    ),
}


@pytest.mark.parametrize("case", list(MANIFEST_PINS))
def test_manifest_pins_command_seed_and_config(case, manifest_inputs, tmp_path):
    line, command, seed, config = MANIFEST_PINS[case]
    out = tmp_path / "out"
    argv = [token.format(**manifest_inputs) for token in line.split()]
    assert main([*argv, "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["seed"] == seed
    got = manifest["config"]
    assert {k: Path(v).name if k in manifest_inputs else v for k, v in got.items()} == config


def test_cli_import_loads_no_scipy():
    # Every command starts on numpy alone; scipy is a test-only dependency.
    code = "import sys, curvedim.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


def _env_without_blas_threads(**extra) -> dict:
    """This environment with ``src`` on the path and no BLAS thread variable
    set, plus ``extra``."""
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    return {**env, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), **extra}


@pytest.fixture
def openblas(monkeypatch):
    """The bundled OpenBLAS's thread-count getter, with no thread variable set
    and the count at 2, a value the pin in ``main`` must give back."""
    blas = cli._openblas()
    if blas is None:
        pytest.skip("numpy is not built on its bundled OpenBLAS")
    for var in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    get, set_ = blas
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.mark.parametrize(
    "argv",
    [
        ["identify", "--panel", "{panel}", "--B", "50", "--seed", "2"],
        ["simulate", "subspace-error", "--d-values", "2,4", "--n-values", "100",
         "--replications", "10", "--threads", "2", "--seed", "2"],
    ],
    ids=["identify", "subspace-error"],
)
def test_outputs_do_not_depend_on_blas_thread_count(argv, two_factor_panel_csv, tmp_path):
    # Unset, OpenBLAS takes one thread per core; each command runs on one anyway.
    trees = []
    for tag, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / tag
        cmd = [sys.executable, "-m", "curvedim.cli",
               *(a.format(panel=two_factor_panel_csv) for a in argv), "--output-dir", str(out)]
        subprocess.run(cmd, capture_output=True, check=True, env=_env_without_blas_threads(**extra))
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(trees[0]) == sorted(trees[1])
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


def test_main_runs_on_one_blas_thread_and_restores_the_count(openblas, monkeypatch, tmp_path):
    during = []
    read = cli.read_loadings_csv

    def spied(path):
        during.append(openblas())
        return read(path)

    monkeypatch.setattr(cli, "read_loadings_csv", spied)
    loadings = tmp_path / "loadings.csv"
    write_loadings_csv(np.random.default_rng(12).standard_normal((80, 2)), loadings)
    assert main(["var-fit", "--loadings", str(loadings), "--output-dir", str(tmp_path / "ok")]) == 0
    assert openblas() == 2
    missing = str(tmp_path / "missing.csv")
    assert main(["var-fit", "--loadings", missing, "--output-dir", str(tmp_path / "bad")]) == 1
    assert openblas() == 2
    assert during == [1, 1]


@pytest.mark.parametrize("var", cli.BLAS_THREAD_VARS)
def test_user_blas_thread_variable_leaves_blas_alone(var, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "_openblas", lambda: (lambda: 2, calls.append))
    for name in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    argv = ["simulate", "rate", "--replications", "1", "--sample-sizes", "100"]
    assert main([*argv, "--output-dir", str(tmp_path / "unset")]) == 0
    assert calls == [1, 2]  # unset: pinned to one thread, then restored
    calls.clear()
    monkeypatch.setenv(var, "2")
    assert main([*argv, "--output-dir", str(tmp_path / "set")]) == 0
    assert calls == []


# Prints the bundled OpenBLAS's thread count, read through its own lookup.
_PRINT_BLAS_THREADS = (
    "import ctypes, pathlib, numpy\n"
    "[lib] = (pathlib.Path(numpy.__file__).parents[1] / 'numpy.libs')"
    ".glob('libscipy_openblas64_*')\n"
    "print(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())\n"
)
# The modules only some commands run, which they import themselves.
COMMAND_MODULES = ("curvedim.density", "curvedim.tsmodels", "curvedim.simulation")


def _run_fresh(code: str, **env) -> list[str]:
    """The whitespace-separated words ``code`` prints in a fresh interpreter,
    run with no BLAS thread variable set except those in ``env``."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=_env_without_blas_threads(**env),
    )
    return done.stdout.split()


@pytest.fixture
def bundled_openblas():
    if cli._openblas() is None:
        pytest.skip("numpy is not built on its bundled OpenBLAS")


def test_cli_import_leaves_blas_thread_count_alone(bundled_openblas):
    # numpy loaded first: the import leaves the count it started with.
    before, after = _run_fresh(
        _PRINT_BLAS_THREADS + "import curvedim.cli\n" + _PRINT_BLAS_THREADS
    )
    assert after == before


def test_cli_loading_numpy_starts_openblas_on_one_thread(bundled_openblas):
    code = (
        "import curvedim.cli\n"
        + _PRINT_BLAS_THREADS
        + "import os, sys\n"
        + "print('OPENBLAS_NUM_THREADS' in os.environ)\n"
        + f"print(*[m for m in {COMMAND_MODULES!r} if m in sys.modules])\n"
    )
    assert _run_fresh(code) == ["1", "False"]


def test_cli_import_keeps_a_user_thread_variable(bundled_openblas):
    cli_first = _run_fresh("import curvedim.cli\n" + _PRINT_BLAS_THREADS, OMP_NUM_THREADS="2")
    assert cli_first == _run_fresh(_PRINT_BLAS_THREADS, OMP_NUM_THREADS="2")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_study_command_keeps_the_memory_it_frees(tmp_path):
    # The benchmark's study-n100 command in a process whose numpy cli loads.
    # With glibc's defaults each freed stack array goes back to the kernel
    # and the next faults its pages in again: about 8,000 minor faults in
    # main, against about 1,700 with the memory kept.
    code = (
        "import resource, sys, curvedim.cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "rc = curvedim.cli.main(sys.argv[1:])\n"
        "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    argv = ["simulate", "subspace-error", "--d-values", "2,4,6", "--n-values", "100",
            "--replications", "100", "--p", "5", "--output-dir", str(tmp_path)]
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          check=True, env=_env_without_blas_threads())
    rc, faults = map(int, done.stdout.split())
    assert rc == 0
    assert faults < 4000


def test_package_names_load_on_first_access():
    assert _run_fresh("import sys, curvedim; print('numpy' in sys.modules)") == ["False"]
    import curvedim

    for name in curvedim.__all__:
        obj = getattr(curvedim, name)
        assert obj.__module__.startswith("curvedim.")
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(curvedim.__all__) <= set(dir(curvedim))
    with pytest.raises(AttributeError, match="no_such_name"):
        curvedim.no_such_name
