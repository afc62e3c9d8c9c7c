#!/usr/bin/env python3
"""timeloc benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cli-pipeline --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Each run imports timeloc from ``src/`` of the checkout several times (set-up),
then repeats full passes of the workload for ``--seconds`` seconds as a
closed loop, one caller in one thread, and reports medians.  Blocks of a
fixed reference job (reference.py) run between set-ups and between a pass's
operations; the gated ``setup_s`` and ``run_s`` divide each stretch of work
by the mean of the blocks around it, giving seconds of a machine on which a
block takes ``reference.NOMINAL_S``, so that the host's speed swings cancel.
The wall times are printed too.  Every pass's
outputs are checked (see bench_workloads.py); ``failed`` counts the
operations that raised, exited non-zero or produced other output than the
recorded digests.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and half on traced ones and prints the per-layer
metrics of the traced pass with the median wall time, plus the tracing
overhead; that pass's spans are written to ``.perfbench_out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
DIGESTS_PATH = HERE / "expected_digests.json"
MODULES = (
    "errors", "trace_model", "simulator", "home_mining", "time_map",
    "nn_baseline", "eval_harness", "door_detect", "sensing_fsm", "cli",
)
MIN_PASSES = 3
C01_BOUND_S = 5.0

sys.path.insert(0, str(HERE))
import bench_tracer  # noqa: E402
import reference  # noqa: E402
from bench_workloads import WORKLOADS, check_digests  # noqa: E402

clock = time.perf_counter


def import_timeloc() -> SimpleNamespace:
    """A fresh import of timeloc and its modules from the checkout's src/."""
    for name in [n for n in sys.modules if n == "timeloc" or n.startswith("timeloc.")]:
        del sys.modules[name]
    package = importlib.import_module("timeloc")
    tl = SimpleNamespace(package=package)
    for name in MODULES:
        setattr(tl, name, importlib.import_module(f"timeloc.{name}"))
    return tl


def load_expected(workload: str, params: dict, seed: int, path: Path) -> dict | None:
    """Recorded digests for this workload, parameters and seed, if any."""
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text(encoding="utf-8")).get(workload, {})
    if recorded.get("params") != params:
        return None
    return recorded.get("seeds", {}).get(str(seed))


def measure(workload, tl, state, params, seed, workdir, seconds, tracer=None):
    """Passes for ``seconds`` (at least MIN_PASSES); if traced, each pass's
    per-layer metrics and spans.  Traced passes run no reference blocks."""
    passes, traces = [], []
    started = clock()
    while len(passes) < MIN_PASSES or clock() - started < seconds:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        gauge = reference.Gauge(enabled=tracer is None)
        p = workload.run_pass(tl, state, params, seed, workdir, gauge)
        passes.append(p)
        if tracer is not None:
            traces.append((tracer.layer_metrics(p.run_s), tracer.spans()))
    return passes, traces


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 params_override: dict, digests_path: Path) -> dict:
    workload = WORKLOADS[name]
    spec = SPEC["workloads"][name]
    params = {**spec["params"], **params_override.get(name, {})}

    setup_s, setup_refs = [], [reference.reference_block()]
    for _ in range(spec["setups"]):
        gc.collect()
        t0 = clock()
        tl = import_timeloc()
        state = workload.setup(tl, params, seed)
        setup_s.append(clock() - t0)
        gc.collect()
        setup_refs.append(reference.reference_block())
    if Path(tl.package.__file__).resolve().parent != SRC / "timeloc":
        raise RuntimeError(f"imported timeloc from {tl.package.__file__}, not from {SRC}")

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        budget = seconds / 2 if trace else seconds
        passes, _ = measure(workload, tl, state, params, seed, workdir, budget)
        traced_passes, per_layer = [], {}
        if trace:
            tracer = bench_tracer.Tracer()
            uninstall = bench_tracer.install(tracer, tl)
            try:
                traced_passes, traces = measure(
                    workload, tl, state, params, seed, workdir, budget, tracer
                )
            finally:
                uninstall()
            # the traced pass of median wall time, so its self times add up
            order = sorted(range(len(traced_passes)), key=lambda i: traced_passes[i].run_s)
            per_layer, spans = traces[order[(len(order) - 1) // 2]]
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            bench_tracer.dump_spans(spans, out_dir / f"spans-{name}-seed{seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = load_expected(name, params, seed, digests_path)
    attempted, failed, verdict = check_digests(passes + traced_passes, expected)

    setup_norm_s = [
        wall * reference.NOMINAL_S * 2 / (setup_refs[i] + setup_refs[i + 1])
        for i, wall in enumerate(setup_s)
    ]
    metrics = {
        "setup_s": statistics.median(setup_norm_s),
        "run_s": statistics.median(p.norm_s for p in passes),
        "setup_wall_s": statistics.median(setup_s),
        "run_wall_s": statistics.median(p.run_s for p in passes),
        "ref_s": statistics.median(setup_refs),
    }
    for key in passes[0].samples:
        metrics[key] = statistics.median(statistics.median(p.samples[key]) for p in passes)
    for key in passes[0].values:
        metrics[key] = statistics.median(p.values[key] for p in passes)
    metrics["failed_frac"] = failed / attempted

    if trace:
        per_layer["bench.untraced_run_s"] = metrics["run_wall_s"]
        per_layer["bench.overhead_s"] = per_layer["bench.traced_run_s"] - metrics["run_wall_s"]

    return {
        "name": name, "seed": seed, "params": params, "passes": len(passes),
        "traced_passes": len(traced_passes), "setups": len(setup_s),
        "attempted": attempted, "failed": failed, "verdict": verdict,
        "metrics": metrics, "per_layer": per_layer,
    }


def print_report(r: dict) -> None:
    m = r["metrics"]
    print(f"workload {r['name']} seed {r['seed']} params {json.dumps(r['params'], sort_keys=True)}")
    print(f"  {SPEC['loop']}; {r['passes']} untraced and {r['traced_passes']} traced pass(es), {r['setups']} set-up(s)")
    notes = {
        "setup_s": f"median of {r['setups']} set-ups, reference-normalised",
        "run_s": f"median of {r['passes']} passes, reference-normalised",
        "setup_wall_s": f"median of {r['setups']} set-ups",
        "run_wall_s": f"median of {r['passes']} passes",
        "ref_s": f"median of the {r['setups'] + 1} blocks around the set-ups, nominal {reference.NOMINAL_S:g} s",
        "predict_p50_us": f"{int(m.get('queries', 0))} queries per pass",
        "update_p50_ms": f"{r['params'].get('days')} folds per pass",
        "door_p50_ms": f"{r['params'].get('days')} days per pass",
        "failed_frac": f"{r['failed']} of {r['attempted']} operations",
    }
    for metric, info in SPEC["end_to_end"].items():
        if r["name"] in info["workloads"]:
            print(f"  {metric:<18} {m[metric]:>14.6g} {info['unit']:<9} {notes.get(metric, '')}")
    if r["name"] == "mining-fleet":
        run_s = m["run_wall_s"]
        print(
            f"  c01 headroom: {int(m['winners_correct'])}/{r['params']['fleet']} winners correct, "
            f"run_wall_s {run_s:.3f} s against the {C01_BOUND_S:g} s bound, "
            f"margin {(C01_BOUND_S - run_s) / C01_BOUND_S:.3f} of the bound"
        )
    print(f"  outputs: {r['verdict']}")
    units = dict(bench_tracer.LAYER_METRICS)
    for metric, value in r["per_layer"].items():
        print(f"  {metric:<34} {value:>14.6g} {units[metric]}")


def result_line(results: list[dict], trace: bool) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if trace:
        units = dict(bench_tracer.LAYER_METRICS)
        wanted = [(name, units[name], "per_layer") for name, _ in bench_tracer.LAYER_METRICS]
    else:
        wanted = [(name, info["unit"], "metrics") for name, info in SPEC["end_to_end"].items()
                  if info.get("gated")]
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['name']}."
        for name, unit, source in wanted:
            metrics[prefix + name] = {"value": r[source][name], "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--params", type=json.loads, default={},
                        help='per-workload parameter overrides for smaller runs, as JSON: '
                             '{"phone-replay": {"days": 30}}')
    parser.add_argument("--digests", type=Path, default=DIGESTS_PATH,
                        help="recorded output digests to check against")
    args = parser.parse_args(argv)

    if not (SRC / "timeloc" / "__init__.py").is_file():
        print(f"perfbench: no timeloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        r = run_workload(name, args.seed, args.seconds, bool(args.trace), args.params, args.digests)
        print_report(r)
        results.append(r)
    print(result_line(results, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
