"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/spread.py --workload NAME

Runs bench/run.py once per seed, seeds 1 to 10, one run at a time, and
prints for each metric the median and (Q3 - Q1) / median of its values,
with the quartiles of statistics.quantiles(n=4), next to the metric's
bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from oscbench.stats import median, quartile_spread  # noqa: E402

FIRST_SEED = 1
SEEDS = 10


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(FIRST_SEED, FIRST_SEED + SEEDS):
        out = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    for name, xs in values.items():
        spread = quartile_spread(xs)
        flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
        print(f"{name:18s} median {median(xs):12.6g}  spread {spread:7.4f}  bound {bounds[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
