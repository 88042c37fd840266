"""curvedim benchmark: repeat one CLI workload in fresh processes and report costs.

    python3 perfbench/run.py --workload identify-n600 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root. Inputs are generated from --seed; the
command is then run in closed loop, one fresh process at a time, until
--seconds have passed. Every repetition's outputs are checked against an
oracle after the timed loop. With --trace 0 the last stdout line holds
the end-to-end metrics (medians over the repetitions); with --trace 1 it
holds the per-layer metrics from alternating traced repetitions. Metric
names and units come from BENCHMARK.json. A fuller record (environment,
shapes, tracing overhead, every repetition) goes to perfbench/out/results/. BLAS and OpenMP thread variables are passed on
as they are; the benchmark never sets them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# A repetition running longer is killed and counts as failed. No probe
# starts after PROBE_CUTOFF_S, so a run ends well within three minutes.
COMMAND_TIMEOUT_S = 60.0
PROBE_CUTOFF_S = 100.0
# setup_s is the median over at least this many start-ups per run: every
# repetition's, topped up by processes that only import curvedim.cli.
SETUP_SAMPLES = 6

# Baselines listed in ROADMAP open item 1, on the workload whose shape each
# was listed for: (what, listed value, traced metrics whose medians add up to it).
ROADMAP_BASELINES = {
    "identify-n600": [
        ("bootstrap replicate, n=600 m=101", "3.6-7 ms",
         ("dimension.replicate_ms_p50", "dimension.bootstrap_self_ms_per_replicate")),
    ],
    "density-250d": [
        ("select_dimension, density panel d_max=5 B=100", "5.3 s",
         ("dimension.select_dimension_s",)),
        ("density build, 250 days", "0.05 s", ("density.build_density_panel_s",)),
        ("VAR/AIC", "1.4 ms", ("tsmodels.fit_var_with_aic_s",)),
    ],
}


def declared_metrics(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def spawn_child(result: Path, traced: bool, argv: list[str]) -> int:
    """Run child.py in a fresh process and wait for it; returns its exit code."""
    with open(f"{result}.stderr", "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(time.monotonic()), str(result),
             "1" if traced else "0", str(SRC), "--", *argv],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            return proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            return proc.wait()


def run_command(workload, index: int, traced: bool, workdir: Path) -> dict:
    """One repetition in a fresh process; returns its record (timings absent if it crashed)."""
    out = workdir / f"cmd{index}"
    result = workdir / f"cmd{index}.json"
    code = spawn_child(result, traced, workload.argv(out))
    record = {"index": index, "traced": traced, "exit_code": code, "out": out}
    if result.is_file():
        record.update(json.loads(result.read_text(encoding="utf-8")))
    if traced and code == 0:
        trace = json.loads((workdir / f"cmd{index}.json.spans.json").read_text(encoding="utf-8"))
        record["layers"] = spans.layer_metrics(trace["spans"], trace["counters"], record["run_s"])
        record["untraced_names"] = trace["missing"]
    return record


def check_command(workload, record: dict) -> list[str]:
    if record["exit_code"] != 0:
        return [f"exit code {record['exit_code']}"]
    if "run_s" not in record:
        return ["no timing record"]
    if not Path(record["module_file"]).resolve().is_relative_to(SRC):
        return [f"ran curvedim from {record['module_file']}, not from {SRC}"]
    return list(workload.check(record["out"]))


def tally(workload, records: list[dict]) -> int:
    """Check every repetition, store its problems, and return how many failed."""
    for record in records:
        record["problems"] = check_command(workload, record)
        record["out"] = str(record["out"])
    return sum(1 for r in records if r["problems"])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "count": len(values)}


def probe_setup(workdir: Path, name: str) -> float | None:
    """setup_s of a process that only imports curvedim.cli; None if the import fails."""
    result = workdir / f"{name}.json"
    if spawn_child(result, False, []) != 0:
        sys.stderr.write(Path(f"{result}.stderr").read_text(encoding="utf-8")[-2000:])
        return None
    return json.loads(result.read_text(encoding="utf-8"))["setup_s"]


def bypass_report(layers: dict, workload: str) -> dict:
    """Predictions about layers a workload must not reach, as measured."""
    checks = {}
    if workload == "study-n100":
        checks["no bootstrap_test spans"] = layers["dimension.bootstrap_test_calls"] == 0
        checks["route_grid_calls is 0"] = layers["eigen.route_grid_calls"] == 0
    if workload in ("identify-n600", "study-n100"):
        checks["no density spans"] = layers["density.calls"] == 0
    if workload in ("identify-n600", "density-250d"):
        checks["route_dual_calls is 0"] = layers["eigen.route_dual_calls"] == 0
    return checks


def tracing_overhead(records: list[dict]) -> dict | None:
    """Median of traced minus untraced run_s over adjacent pairs of repetitions.

    Repetitions alternate traced, untraced; pairing neighbours keeps the
    machine's slow drift in speed out of the difference. None without a pair.
    """
    ok = {r["index"]: r for r in records if "run_s" in r and not r["problems"]}
    diffs = [ok[i]["run_s"] - ok[i + 1]["run_s"]
             for i in ok if ok[i]["traced"] and i + 1 in ok and not ok[i + 1]["traced"]]
    return {**summary(diffs), "unit": "s"} if diffs else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "input").mkdir(parents=True)
    started = time.monotonic()
    try:
        workload = WORKLOADS[name](seed, workdir / "input")
        clock = time.perf_counter()
        shapes = workload.prepare()
        prepare_s = time.perf_counter() - clock
        # An untimed first import byte-compiles the package.
        if probe_setup(workdir, "warm-up") is None:
            raise SystemExit(f"perfbench: cannot import curvedim.cli from {SRC}")

        records = []
        deadline = time.monotonic() + seconds
        minimum = 2 if trace else 1
        while len(records) < minimum or time.monotonic() < deadline:
            records.append(run_command(workload, len(records), trace and len(records) % 2 == 0,
                                       workdir))
        probes = [probe_setup(workdir, f"probe{i}")
                  for i in range(max(0, SETUP_SAMPLES - len(records)))
                  if time.monotonic() < started + PROBE_CUTOFF_S]

        clock = time.perf_counter()
        workload.reference()
        reference_s = time.perf_counter() - clock
        failed = tally(workload, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Timings come from the repetitions that succeeded, or failed ones when none did.
    timed = ([r for r in records if "run_s" in r and not r["problems"]]
             or [r for r in records if "run_s" in r])
    if not timed:
        raise SystemExit(f"perfbench: no repetition of {name} recorded a timing")
    plain = [r for r in timed if not r["traced"]]
    setups = [r["setup_s"] for r in timed] + [p for p in probes if p is not None]
    end_to_end = declared_metrics("end_to_end")
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "shapes": shapes, "environment": timed[0]["environment"],
        "attempted": len(records), "failed": failed, "failed_ratio": failed / len(records),
        "prepare_s": prepare_s, "reference_s": reference_s,
        "end_to_end": {
            key: {**summary(setups if key == "setup_s" else [r[key] for r in plain or timed]),
                  "unit": unit}
            for key, unit in end_to_end.items()
        },
        "setup_probes": probes,
        "records": records,
    }
    if trace:
        traced = [r for r in timed if r["traced"]]
        if not traced:
            raise SystemExit(f"perfbench: no traced repetition of {name} completed")
        layers = {
            key: {**summary([r["layers"][key] for r in traced]), "unit": unit}
            for key, unit in declared_metrics("per_layer").items()
        }
        medians = {k: v["median"] for k, v in layers.items()}
        report["layers"] = layers
        report["tracing_overhead_s"] = tracing_overhead(records)
        report["bypass"] = bypass_report(medians, name)
        report["roadmap_item_1"] = [
            {"what": what, "roadmap": listed, "metrics": keys,
             "traced": sum(medians[k] for k in keys)}
            for what, listed, keys in ROADMAP_BASELINES.get(name, [])
        ]
        report["untraced_names"] = traced[0]["untraced_names"]
    return report


def print_metrics(label: str, metrics: dict) -> None:
    for key, m in metrics.items():
        print(f"# {label} {key} = {m['median']:.6g} {m['unit']} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['count']})")


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"commands={report['attempted']} failed={report['failed']}")
    print("# shapes " + " ".join(f"{k}={v}" for k, v in report["shapes"].items()))
    print(f"# environment python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']!r} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          + " ".join(f"{k}={v}" for k, v in env["threads_env"].items()))
    print_metrics("end_to_end", report["end_to_end"])
    print(f"# end_to_end failed_ratio = {report['failed_ratio']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} commands)")
    if report["trace"]:
        print_metrics("layer", report["layers"])
        overhead = report["tracing_overhead_s"]
        print("# tracing overhead: no adjacent traced/untraced pair" if overhead is None else
              f"# tracing overhead (traced - untraced run_s, adjacent pairs) = "
              f"{overhead['median']:.6g} s (q1 {overhead['q1']:.6g}, q3 {overhead['q3']:.6g}, "
              f"pairs={overhead['count']})")
    for key, ok in report.get("bypass", {}).items():
        print(f"# bypass {key}: {'holds' if ok else 'VIOLATED'}")
    for row in report.get("roadmap_item_1", []):
        print(f"# roadmap item 1: {row['what']}: listed {row['roadmap']}, traced "
              f"{' + '.join(row['metrics'])} = {row['traced']:.6g}")
    for record in report["records"]:
        for problem in record["problems"]:
            print(f"# FAILED command {record['index']}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "curvedim" / "cli.py").is_file():
        print(f"perfbench: no curvedim sources at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    for report in reports:
        print_report(report)
        path = results / f"{report['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    section = "layers" if args.trace else "end_to_end"
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for key, m in report[section].items():
            metrics[prefix + key] = {"value": m["median"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reports),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
