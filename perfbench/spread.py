#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload phone-replay --seeds 0-9 --seconds 20

For every metric of the result line, and for the wall times that the gated
metrics normalise, it prints the median over the seeds and the distance
between the first and third quartile as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct=false ({result['failed']} of {result['attempted']} failed)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in proc.stdout.splitlines():  # the wall times the gated metrics normalise
            words = line.split()
            if words[:1] in (["setup_wall_s"], ["run_wall_s"]):
                values.setdefault(words[0], []).append(float(words[1]))
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = "" if bound is None else f" bound {bound} (a third: {bound / 3:.3f})"
        print(f"{name}: median {med:.6g} spread {spread:.4f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
