"""Output checks. Each returns a list of problems; an empty list means correct.

A command whose outputs have any problem counts as failed in
``failed_ratio``, next to commands that exited non-zero.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from oracle import ALPHA, CLAMP, eigenfunctions

SPECTRUM_RTOL = 1e-8  # reported eigenvalues vs the grid-route oracle, times lambda_1
SUBSPACE_TOL = 1e-6  # distance between reported and oracle eigenfunction spans
STUDY_TOL = 1e-8  # dtilde and dtilde_adaptive vs the oracle


class Problems(list):
    def need(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def _json(path: Path, problems: Problems):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _csv(path: Path, problems: Problems, header: bool):
    """(header fields or None, rows as a float matrix) or None when unreadable."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        head = lines.pop(0).split(",") if header else None
        return head, np.array([[float(x) for x in line.split(",")] for line in lines if line])
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _spectrum(reported, expected: np.ndarray, what: str, problems: Problems) -> None:
    """Reported spectrum equals the oracle's within SPECTRUM_RTOL * lambda_1.

    Entries present on one side only must be zero at that tolerance, so a
    route that reports fewer (zero) eigenvalues is not penalised.
    """
    got = np.asarray(reported, dtype=float)
    tol = SPECTRUM_RTOL * expected[0]
    ref = np.where(expected < CLAMP * expected[0], 0.0, expected)
    k = min(got.size, ref.size)
    if not problems.need(got.ndim == 1 and k > 0, f"{what}: no eigenvalues"):
        return
    worst = float(np.max(np.abs(got[:k] - ref[:k])))
    problems.need(worst <= tol, f"{what}: eigenvalues differ from the oracle by {worst:.3e} > {tol:.3e}")
    tail = np.concatenate([got[k:], ref[k:]])
    problems.need(
        not tail.size or float(np.max(np.abs(tail))) <= tol,
        f"{what}: {got.size} eigenvalues reported, oracle has {ref.size} nonzero beyond the common part",
    )


def check_identify(out: Path, ref: dict, n_draws: int) -> Problems:
    """dimension_report, decomposition, eigenfunctions and loadings of one identify run."""
    problems = Problems()
    _json(out / "manifest.json", problems)
    report = _json(out / "dimension_report.json", problems)
    if report is None:
        return problems
    try:
        pvalues = {int(k): float(v) for k, v in report["pvalues"].items()}
        d_hat = int(report["d_hat"])
        _spectrum(report["eigenvalues"], ref["eigenvalues"], "dimension_report", problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"dimension_report.json: {exc!r}")
        return problems
    if problems.need(set(pvalues) == set(ref["pvalues"]), f"p-values for ranks {sorted(pvalues)}"):
        slack = 1.0 / n_draws + 1e-12
        for rank, (lo, hi) in ref["pvalues"].items():
            problems.need(
                lo - slack <= pvalues[rank] <= hi + slack,
                f"p-value of rank {rank} is {pvalues[rank]}, reference [{lo}, {hi}]",
            )
        rule = next((r - 1 for r in sorted(pvalues) if pvalues[r] > ALPHA), max(pvalues))
        problems.need(d_hat == rule, f"d_hat {d_hat} but the p-values give {rule}")

    dec = _json(out / "decomposition.json", problems)
    if dec is not None:
        problems.need(dec.get("count") == d_hat, f"decomposition count {dec.get('count')} != d_hat {d_hat}")
        _spectrum(dec.get("eigenvalues", []), ref["eigenvalues"], "decomposition", problems)

    grid, w, values = ref["grid"], ref["weights"], ref["values"]
    curves = _csv(out / "eigenfunctions.csv", problems, header=False)
    loads = _csv(out / "loadings.csv", problems, header=True)
    if curves is None or loads is None or d_hat == 0:
        return problems
    funcs = curves[1][1:]
    if not problems.need(
        curves[1].shape == (1 + d_hat, grid.size) and np.array_equal(curves[1][0], grid),
        f"eigenfunctions.csv has shape {curves[1].shape}, want grid row plus {d_hat} curves",
    ):
        return problems
    gram = (funcs * w) @ funcs.T
    problems.need(np.allclose(gram, np.eye(d_hat), atol=SUBSPACE_TOL), "eigenfunctions not orthonormal")
    truth = eigenfunctions(values, w, ref["p"], d_hat)
    overlap = float(np.sum(((funcs * w) @ truth.T) ** 2))
    distance = np.sqrt(max(0.0, 1.0 - overlap / d_hat))
    problems.need(distance <= SUBSPACE_TOL, f"eigenfunction span is {distance:.2e} from the oracle's")
    head, lam = loads
    want = ((values - values.mean(axis=0)) * w) @ funcs.T
    if problems.need(
        head == [f"component_{j + 1}" for j in range(d_hat)] and lam.shape == want.shape,
        f"loadings.csv has header {head} and shape {lam.shape}, want {want.shape}",
    ):
        problems.need(
            np.allclose(lam, want, rtol=0, atol=1e-9 * np.max(np.abs(want))),
            "loadings are not the projections on the eigenfunctions",
        )
    return problems


def check_density(out: Path, ref: dict, n_draws: int, n_days: int, bad_ids, max_order: int) -> Problems:
    """Panel, day metadata, the identify outputs and the VAR fit of one density run."""
    problems = check_identify(out, ref, n_draws)
    panel = _csv(out / "panel.csv", problems, header=False)
    if panel is not None:
        values = panel[1]
        want = np.vstack([ref["grid"], ref["values"]])
        problems.need(
            values.shape == want.shape
            and np.allclose(values, want, rtol=0, atol=1e-12 * np.max(np.abs(want))),
            f"panel.csv (shape {values.shape}) differs from the oracle's density panel {want.shape}",
        )
    meta = _json(out / "day_metadata.json", problems)
    if meta is not None:
        days = meta.get("days", [])
        skipped = sorted(d.get("day_id") for d in days if d.get("skipped"))
        problems.need(len(days) == n_days, f"day_metadata lists {len(days)} days, want {n_days}")
        problems.need(skipped == sorted(bad_ids), f"skipped days {skipped}, want {sorted(bad_ids)}")
    report = _json(out / "dimension_report.json", Problems())
    d_hat = int(report.get("d_hat", 0)) if report else 0
    if d_hat == 0:
        return problems
    fit = _json(out / "var_fit.json", problems)
    if fit is not None:
        order = fit.get("order", -1)
        mats = [np.asarray(m, dtype=float) for m in fit.get("coefficient_matrices", {}).values()]
        problems.need(0 <= order <= max_order, f"VAR order {order} outside 0..{max_order}")
        problems.need(
            len(mats) == order and all(m.shape == (d_hat, d_hat) for m in mats),
            f"VAR has {len(mats)} coefficient matrices for order {order}, want {d_hat}x{d_hat}",
        )
    diag = _json(out / "diagnostics.json", problems)
    if diag is not None:
        problems.need(
            set(diag.get("ljung_box", {})) == {f"component_{j + 1}" for j in range(d_hat)},
            "diagnostics.json does not cover every loading series",
        )
    return problems


STUDY_HEADER = ["d", "n", "replication", "d_hat", "dtilde", "dtilde_adaptive"]


def check_study(out: Path, records) -> Problems:
    """figure3_dtilde.csv of one subspace-error study against the oracle's records."""
    problems = Problems()
    table = _csv(out / "figure3_dtilde.csv", problems, header=True)
    _json(out / "manifest.json", problems)
    if table is None:
        return problems
    head, rows = table
    want = np.array(records, dtype=float)
    if not problems.need(
        head == STUDY_HEADER and rows.shape == want.shape,
        f"figure3_dtilde.csv has header {head} and shape {rows.shape}, want {want.shape}",
    ):
        return problems
    problems.need(np.array_equal(rows[:, :4], want[:, :4]), "d, n, replication or d_hat differ")
    problems.need(
        bool(np.all((rows[:, 4:] >= 0) & (rows[:, 4:] <= 1))), "a distance lies outside [0, 1]"
    )
    for col, name in ((4, "dtilde"), (5, "dtilde_adaptive")):
        worst = float(np.max(np.abs(rows[:, col] - want[:, col])))
        problems.need(worst <= STUDY_TOL, f"{name} differs from the oracle by {worst:.2e}")
    return problems
