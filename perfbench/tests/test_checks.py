"""Output checks against the oracle, and their effect on the failure count."""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import oracle
import run
from curvedim.cli import main as cli_main


@pytest.fixture(scope="module")
def identify_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("identify")
    grid, values = inputs.factor_panel(5, 80, 21)
    panel = tmp / "panel.csv"
    inputs.write_panel_csv(panel, grid, values)
    out = tmp / "out"
    argv = ["identify", "--panel", str(panel), "--p", "3", "--B", "20", "--d-max", "3",
            "--seed", "5", "--output-dir", str(out)]
    assert cli_main(argv) == 0
    return out, oracle.identify_reference(grid, values, 3, 20, 3, 5)


def copy_outputs(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_program_outputs_pass(identify_run):
    out, ref = identify_run
    assert checks.check_identify(out, ref, 20) == []


def test_wrong_eigenvalue_is_caught(identify_run, tmp_path):
    out, ref = identify_run
    bad = copy_outputs(out, tmp_path / "bad")
    report = json.loads((bad / "dimension_report.json").read_text())
    report["eigenvalues"][1] *= 1.001
    (bad / "dimension_report.json").write_text(json.dumps(report))
    assert any("eigenvalues differ" in p for p in checks.check_identify(bad, ref, 20))


def test_pvalue_far_from_reference_and_d_hat_rule_are_caught(identify_run, tmp_path):
    out, ref = identify_run
    bad = copy_outputs(out, tmp_path / "bad")
    report = json.loads((bad / "dimension_report.json").read_text())
    report["pvalues"]["1"] = 0.5 if report["pvalues"]["1"] < 0.3 else 0.0
    (bad / "dimension_report.json").write_text(json.dumps(report))
    problems = checks.check_identify(bad, ref, 20)
    assert any("p-value of rank 1" in p for p in problems)
    assert any("d_hat" in p for p in problems)


class FakeWorkload:
    def __init__(self, ref):
        self.ref = ref

    def check(self, out):
        return checks.check_identify(out, self.ref, 20)


def test_missing_file_counts_as_failed_command(identify_run, tmp_path):
    out, ref = identify_run
    good = copy_outputs(out, tmp_path / "good")
    bad = copy_outputs(out, tmp_path / "bad")
    (bad / "loadings.csv").unlink()
    module = str(run.SRC / "curvedim" / "cli.py")
    records = [
        {"exit_code": 0, "run_s": 1.0, "module_file": module, "out": good},
        {"exit_code": 0, "run_s": 1.0, "module_file": module, "out": bad},
        {"exit_code": 2, "out": good},
    ]
    assert run.tally(FakeWorkload(ref), records) == 2
    assert records[0]["problems"] == []
    assert any("loadings.csv" in p for p in records[1]["problems"])
    assert records[2]["problems"] == ["exit code 2"]


def test_density_outputs_pass_and_skipped_days_are_checked(tmp_path):
    days = inputs.tick_days(7, 24, 300, 2)
    manifest = inputs.write_tick_manifest(tmp_path / "ticks", days)
    grid, values, bad_ids = oracle.density_panel(days)
    assert values.shape == (22, 201) and len(bad_ids) == 2
    out = tmp_path / "out"
    argv = ["density", "--manifest", str(manifest), "--identify", "--var-fit", "--skip-bad-days",
            "--p", "2", "--d-max", "2", "--B", "10", "--max-order", "2", "--seed", "7",
            "--output-dir", str(out)]
    assert cli_main(argv) == 0
    ref = oracle.identify_reference(grid, values, 2, 10, 2, 7)
    assert checks.check_density(out, ref, 10, 24, bad_ids, 2) == []
    problems = checks.check_density(out, ref, 10, 24, bad_ids[:1], 2)
    assert any("skipped days" in p for p in problems)


def test_study_outputs_pass_and_a_changed_distance_is_caught(tmp_path):
    out = tmp_path / "out"
    argv = ["simulate", "subspace-error", "--d-values", "2,4", "--n-values", "60",
            "--replications", "4", "--p", "3", "--threads", "2", "--seed", "9",
            "--output-dir", str(out)]
    assert cli_main(argv) == 0
    records, _ = oracle.study_reference(9, (2, 4), 60, 4, 3)
    assert checks.check_study(out, records) == []
    csv = out / "figure3_dtilde.csv"
    lines = csv.read_text().splitlines()
    fields = lines[3].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    lines[3] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    assert any("dtilde differs" in p for p in checks.check_study(out, records))


def test_reduced_coordinates_give_the_grid_route_spectrum():
    grid, values = inputs.factor_panel(11, 120, 31)
    w = inputs.trapezoid_weights(grid)
    basis = oracle.row_basis(values, w)
    idx = np.random.default_rng(0).integers(0, 120, size=120)
    star = values[idx] * 1.5 - values.mean(axis=0)
    full = oracle.spectrum(star, w, 4)
    reduced = np.linalg.eigvalsh(oracle.reduced_operator((star * np.sqrt(w)) @ basis.T, 4))[::-1]
    assert basis.shape[0] == 12  # two factor curves and ten noise curves
    np.testing.assert_allclose(reduced, full[: reduced.size], rtol=0, atol=1e-12 * full[0])
    assert np.all(np.abs(full[reduced.size:]) <= 1e-12 * full[0])
