"""The three benchmark workloads: set-up, one timed pass, and its output checks.

Every workload is driven as a closed loop by one caller in one thread: each
call into timeloc starts after the previous one returns.  Calls go through
module attributes looked up at call time (``tl.time_map.predict_tl``), so the
traced run's wrappers see them.  A pass calls its gauge between operations,
which runs the reference job there (see reference.py).  A pass returns its
timings, the digests of its outputs and how many of its operations failed;
the digests are compared with the recorded ones by ``check_digests``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from reference import Gauge

clock = time.perf_counter


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_lines(lines) -> str:
    return sha256_bytes("\n".join(map(str, lines)).encode("utf-8"))


def _report_exception(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class PassResult:
    """One pass: wall and normalised time, named samples, output digests and
    op accounting.

    ``digest_ops`` says which operations a mismatch of each digest fails;
    ``failed_ops`` holds the operations that already failed (an exception, a
    non-zero exit or a failed invariant).
    """

    run_s: float = 0.0
    norm_s: float = 0.0
    samples: dict[str, list[float]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    digest_ops: dict[str, frozenset] = field(default_factory=dict)
    ops: tuple = ()
    failed_ops: set = field(default_factory=set)


def sim_seed(params: dict, seed: int) -> int:
    return params["seed_base"] + seed * params["seed_stride"]


# ---------------------------------------------------------------------------
# cli-pipeline

_STAGES = ("simulate", "mine_home", "build_profile", "evaluate", "sweep")
_STAGE_OUTPUTS = {
    "simulate": ("trace.jsonl", "accel.jsonl", "ground_truth.csv"),
    "mine_home": ("home_tally.csv",),
    "build_profile": ("store/bench.profile.json",),
    "evaluate": ("eval/report.csv", "eval/cdf_tls.csv", "eval/cdf_nn.csv"),
    "sweep": ("sweep/sweep.csv",),
}


def _report_rows(path: Path) -> dict[tuple[str, str], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[1:]:
        cols = line.split(",")
        rows[(cols[0], cols[1])] = cols
    return rows


class CliPipeline:
    name = "cli-pipeline"

    def setup(self, tl, params: dict, seed: int):
        return None

    def run_pass(self, tl, state, params: dict, seed: int, workdir: Path,
                 gauge: Gauge) -> PassResult:
        out = workdir / "pipeline"
        shutil.rmtree(out, ignore_errors=True)
        d = str(out)
        argvs = {
            "simulate": ["simulate", "--scenario", params["scenario"], "--days", str(params["days"]),
                         "--seed", str(sim_seed(params, seed)), "--out", d],
            "mine_home": ["mine-home", "--traces", d, "--out", os.path.join(d, "home_tally.csv")],
            "build_profile": ["build-profile", "--traces", d, "--device", "bench",
                              "--store", os.path.join(d, "store"),
                              "--window-days", str(params["window_days"])],
            "evaluate": ["evaluate", "--method", "both", "--traces", d,
                         "--out", os.path.join(d, "eval"), "--threshold", str(params["threshold"])],
            "sweep": ["sweep", "--traces", d, "--out", os.path.join(d, "sweep"),
                      "--levels", params["sweep_levels"]],
        }
        result = PassResult(ops=_STAGES)
        sink = io.StringIO()
        gauge.start()
        for stage in _STAGES:
            gauge.tick()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = tl.cli.main(argvs[stage])
            except (Exception, SystemExit):
                _report_exception(f"cli stage {stage}")
                rc = None
            result.samples[f"{stage}_s"] = [clock() - t0]
            if rc != 0:
                result.failed_ops.add(stage)
        result.run_s, result.norm_s = gauge.finish()

        for stage, names in _STAGE_OUTPUTS.items():
            for name in names:
                path = out / name
                if path.is_file():
                    result.digests[name] = sha256_bytes(path.read_bytes())
                    result.digest_ops[name] = frozenset({stage})
                else:
                    result.failed_ops.add(stage)
        self._check(out, params, result)
        shutil.rmtree(out, ignore_errors=True)
        return result

    @staticmethod
    def _check(out: Path, params: dict, result: PassResult) -> None:
        """Invariants that hold for any seed, recorded digest or not."""
        level = str(params["threshold"])
        try:
            report = _report_rows(out / "eval" / "report.csv")
            sweep = _report_rows(out / "sweep" / "sweep.csv")
            tls = report[("tls", level)]
            result.values["tls_median_abs_s"] = float(tls[3])
            # evaluate and sweep score the same dataset at the same level
            if any(report[key] != sweep.get(key) for key in report):
                result.failed_ops.update({"evaluate", "sweep"})
            if int(tls[2]) == 0:
                result.failed_ops.add("evaluate")
        except (OSError, KeyError, IndexError, ValueError):
            _report_exception("cli-pipeline output check")
            result.failed_ops.update({"evaluate", "sweep"})


# ---------------------------------------------------------------------------
# mining-fleet

class MiningFleet:
    name = "mining-fleet"

    def setup(self, tl, params: dict, seed: int):
        return None

    def run_pass(self, tl, state, params: dict, seed: int, workdir: Path,
                 gauge: Gauge) -> PassResult:
        first = sim_seed(params, seed)
        members = tuple(range(first, first + params["fleet"]))
        result = PassResult(ops=members)
        winners = []
        gauge.start()
        for member in members:
            gauge.tick()
            try:
                scenario = tl.simulator.mining_scenario(n_days=params["days"])
                traces, _ = tl.simulator.synth_dataset(scenario, member)
                winner = tl.home_mining.vote_home_ap(traces).winner
            except Exception:
                _report_exception(f"mining seed {member}")
                result.failed_ops.add(member)
                winners.append(f"{member}:error")
                continue
            winners.append(f"{member}:{winner}")
            if winner != scenario.route.home_bssid:
                result.failed_ops.add(member)
        result.run_s, result.norm_s = gauge.finish()
        result.values["winners_correct"] = len(members) - len(result.failed_ops)
        result.digests["winners"] = sha256_lines(winners)
        result.digest_ops["winners"] = frozenset(members)
        return result


# ---------------------------------------------------------------------------
# phone-replay

class PhoneReplay:
    name = "phone-replay"

    def setup(self, tl, params: dict, seed: int):
        scenario = tl.simulator.resolve_scenario(params["scenario"], n_days=params["days"])
        traces, truths = tl.simulator.synth_dataset(scenario, sim_seed(params, seed))
        return scenario, traces, {g.day_id: g for g in truths}

    def run_pass(self, tl, state, params: dict, seed: int, workdir: Path,
                 gauge: Gauge) -> PassResult:
        scenario, traces, truths = state
        sim, tm, eh, errors = tl.simulator, tl.time_map, tl.eval_harness, tl.errors
        window_days = params["window_days"]
        master_seed = sim_seed(params, seed)
        days = tuple(range(len(traces)))
        result = PassResult(ops=days)
        predict_us, fold_ms, door_ms = [], [], []
        predictions, door_events, fsm_log, fsm_counters = [], [], [], []
        issued = answered = 0

        gauge.start()
        home = tl.home_mining.vote_home_ap(traces[:window_days]).winner
        profile = tm.empty_profile(home, traces[0].day_id)
        for i, trace in enumerate(traces):
            gauge.tick()
            try:
                if i >= window_days:  # the first week only builds history
                    arrival = truths[trace.day_id].arrival_ts
                    for q in eh.ap_loss_queries(trace, profile.home_bssid, arrival):
                        t0 = clock()
                        try:
                            p = tm.predict_tl(profile, q.bssid, q.observed_tdr_s)
                            answer = f"{p.tl_seconds},{p.source},{p.lookups}"
                            answered += 1
                            if p.tl_seconds < 0 or p.lookups not in (2, 3):
                                result.failed_ops.add(i)
                        except (errors.ColdStart, errors.UnknownBssid) as exc:
                            answer = type(exc).__name__
                        predict_us.append((clock() - t0) * 1e6)
                        issued += 1
                        predictions.append(f"{i},{q.query_ts},{q.bssid},{q.observed_tdr_s},{answer}")

                t0 = clock()
                try:
                    new_map = tm.build_day_map(trace, profile.home_bssid)
                except errors.NoArrival:
                    new_map = None
                window = traces[max(0, i - window_days + 1) : i + 1]
                profile = tm.update_profile(profile, new_map, window, window_days=window_days)
                profile = tm.profile_from_json(tm.profile_to_json(profile))
                fold_ms.append((clock() - t0) * 1e3)

                t0 = clock()
                events = tl.door_detect.detect_door_events(trace, profile.home_bssid)
                door_ms.append((clock() - t0) * 1e3)
                door_events.extend(f"{i},{e.ts}" for e in events)

                if i % params["fsm_every"] == 0:
                    oracle = sim.DayOracle(sim.make_day_plan(scenario, i, master_seed))
                    _, stats = tl.sensing_fsm.run_fsm_day(oracle)
                    fsm_counters.append(stats.wifi_scans)
                    fsm_log.append(
                        f"{i},{stats.wifi_scans},{stats.gps_reads},{stats.accel_samples},{stats.wakeups}"
                    )
            except Exception:
                _report_exception(f"phone-replay day {i}")
                result.failed_ops.add(i)
        result.run_s, result.norm_s = gauge.finish()

        if issued == 0 or not fsm_counters:
            result.failed_ops.update(days)
        result.samples.update(predict_p50_us=predict_us, update_p50_ms=fold_ms, door_p50_ms=door_ms)
        result.values["queries"] = issued
        result.values["answered_frac"] = answered / issued if issued else 0.0
        result.values["fsm_wifi_scans"] = (
            statistics.fmean(fsm_counters) if fsm_counters else 0.0
        )
        result.digests["predictions"] = sha256_lines(predictions)
        result.digests["door_events"] = sha256_lines(door_events)
        result.digests["fsm_counters"] = sha256_lines(fsm_log)
        all_days = frozenset(days)
        result.digest_ops.update(predictions=all_days, door_events=all_days, fsm_counters=all_days)
        return result


WORKLOADS = {w.name: w for w in (CliPipeline(), MiningFleet(), PhoneReplay())}


# ---------------------------------------------------------------------------
# output digests

def check_digests(passes: list[PassResult], expected: dict | None) -> tuple[int, int, str]:
    """Attempted ops, failed ops, and a one-line verdict for a run's passes.

    Every pass's digests must equal the first pass's, and the recorded ones
    when the seed has them.  A mismatching or missing digest fails every
    operation it covers.
    """
    first = passes[0].digests
    references = [first] if expected is None else [first, expected]
    attempted = failed = 0
    mismatched = set()
    for p in passes:
        bad = set(p.failed_ops)
        for ref in references:
            for name in set(ref) | set(p.digests):
                if p.digests.get(name) != ref.get(name):
                    mismatched.add(name)
                    bad |= p.digest_ops.get(name, frozenset(p.ops))
        attempted += len(p.ops)
        failed += len(bad)
    source = "the first pass only (no recorded digests for this seed)"
    if expected is not None:
        source = "the recorded digests"
    if mismatched:
        return attempted, failed, f"MISMATCH against {source}: {', '.join(sorted(mismatched))}"
    return attempted, failed, f"{len(first)} output digests match {source}"
