#!/usr/bin/env python3
"""Record the expected output digests that run.py checks every pass against.

    python3 perfbench/record_digests.py --seeds 0-99

Runs one untimed pass per workload and seed with the parameters in
spec.json and merges the digests into expected_digests.json.  Record only
from a commit whose outputs are known to be right: a later change that
alters any output then fails the benchmark's correctness check.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
from bench_workloads import WORKLOADS, check_digests
from reference import Gauge


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, such as 0-99")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--out", type=Path, default=run.DIGESTS_PATH)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, str(run.SRC))
    tl = run.import_timeloc()
    recorded = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in names:
            params = run.SPEC["workloads"][name]["params"]
            entry = recorded.setdefault(name, {"params": params, "seeds": {}})
            if entry["params"] != params:
                entry.update(params=params, seeds={})
            for seed in seeds:
                workload = WORKLOADS[name]
                state = workload.setup(tl, params, seed)
                p = workload.run_pass(tl, state, params, seed, Path(tmp), Gauge(enabled=False))
                _, failed, _ = check_digests([p], None)
                if failed:
                    print(f"{name} seed {seed}: {failed} operation(s) failed; not recorded", file=sys.stderr)
                    return 1
                entry["seeds"][str(seed)] = p.digests
                print(f"{name} seed {seed}: recorded {len(p.digests)} digests", flush=True)
    args.out.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
