"""The three benchmark workloads: inputs, command line, shapes and checks.

Each workload writes its inputs from the seed, names one CLI command that
the benchmark repeats in fresh processes, and checks every repetition's
outputs against an oracle computed once per run.
"""

from __future__ import annotations

from pathlib import Path

import checks
import inputs
import oracle


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._reference = None

    def reference(self):
        if self._reference is None:
            self._reference = self.build_reference()
        return self._reference

    def input_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.workdir.rglob("*") if f.is_file())


class IdentifyN600(Workload):
    name = "identify-n600"
    n, m, p, B, d_max = 600, 101, 5, 200, 4

    def prepare(self) -> dict:
        self.grid, self.values = inputs.factor_panel(self.seed, self.n, self.m)
        self.panel = self.workdir / "panel.csv"
        inputs.write_panel_csv(self.panel, self.grid, self.values)
        w = inputs.trapezoid_weights(self.grid)
        return {"n": self.n, "m": self.m, "p": self.p, "B": self.B, "d_max": self.d_max,
                "threads": 1, "input_bytes": self.input_bytes(),
                "numerical_rank": inputs.numerical_rank(self.values, w)}

    def argv(self, out: Path) -> list[str]:
        return ["identify", "--panel", str(self.panel), "--p", str(self.p), "--B", str(self.B),
                "--d-max", str(self.d_max), "--seed", str(self.seed), "--output-dir", str(out)]

    def build_reference(self):
        return oracle.identify_reference(self.grid, self.values, self.p, self.B, self.d_max, self.seed)

    def check(self, out: Path) -> list[str]:
        return checks.check_identify(out, self.reference(), self.B)


class Density250d(Workload):
    name = "density-250d"
    days, ticks, bad_days = 255, 2000, 5
    p, B, d_max, max_order = 5, 100, 5, 5

    def prepare(self) -> dict:
        self.tick_days = inputs.tick_days(self.seed, self.days, self.ticks, self.bad_days)
        self.manifest = inputs.write_tick_manifest(self.workdir / "ticks", self.tick_days)
        grid, values, self.bad_ids = oracle.density_panel(self.tick_days)
        self.grid, self.values = grid, values
        return {"n": values.shape[0], "m": grid.size, "p": self.p, "B": self.B,
                "d_max": self.d_max, "threads": 1, "days": self.days,
                "ticks_per_day": self.ticks, "days_without_open": self.bad_days,
                "input_bytes": self.input_bytes(),
                "numerical_rank": inputs.numerical_rank(values, inputs.trapezoid_weights(grid))}

    def argv(self, out: Path) -> list[str]:
        return ["density", "--manifest", str(self.manifest), "--identify", "--var-fit",
                "--skip-bad-days", "--d-max", str(self.d_max), "--B", str(self.B),
                "--max-order", str(self.max_order), "--seed", str(self.seed),
                "--output-dir", str(out)]

    def build_reference(self):
        return oracle.identify_reference(self.grid, self.values, self.p, self.B, self.d_max, self.seed)

    def check(self, out: Path) -> list[str]:
        return checks.check_density(out, self.reference(), self.B, self.days, self.bad_ids,
                                    self.max_order)


class StudyN100(Workload):
    name = "study-n100"
    d_values, n, replications, p, threads = (2, 4, 6), 100, 100, 5, 2

    def prepare(self) -> dict:
        ranks = self.reference()[1]
        return {"n": self.n, "m": oracle.STUDY_GRID_POINTS, "p": self.p, "B": 0, "d_max": 0, "threads": self.threads,
                "d_values": list(self.d_values), "replications": self.replications,
                "input_bytes": 0, "numerical_rank": ranks}

    def argv(self, out: Path) -> list[str]:
        return ["simulate", "subspace-error", "--d-values", ",".join(map(str, self.d_values)),
                "--n-values", str(self.n), "--replications", str(self.replications),
                "--p", str(self.p), "--threads", str(self.threads), "--seed", str(self.seed),
                "--output-dir", str(out)]

    def build_reference(self):
        return oracle.study_reference(self.seed, self.d_values, self.n, self.replications, self.p)

    def check(self, out: Path) -> list[str]:
        return checks.check_study(out, self.reference()[0])


WORKLOADS = {w.name: w for w in (IdentifyN600, Density250d, StudyN100)}
