"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload study-n100 --seeds 1-10 --seconds 20

The spread of a metric is the distance between the first and third
quartiles of its per-seed values (``statistics.quantiles(values, n=4)``)
as a share of their median. It is compared with a third of the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} {line}",
              flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for key, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        bound = bounds.get(key)
        verdict = "" if bound is None else f" bound/3={bound / 3:.3f} {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{key}: median {statistics.median(vals):.4f} spread {spread:.3f}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
