"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-v`` to see
them inline).  All runs are seeded, so results are reproducible.
"""

import time
from datetime import date, timedelta
from pathlib import Path

import pytest

from timeloc import simulator as sim
from timeloc.cli import main as cli_main
from timeloc.door_detect import detect_door_events
from timeloc.errors import ColdStart, NoArrival
from timeloc.eval_harness import EvalDataset, evaluate, sweep_rssi_filter
from timeloc.home_mining import vote_home_ap
from timeloc.nn_baseline import HistoryPoint, NnHistory, nn_predict
from timeloc.sensing_fsm import StateTag, drive_day
from timeloc.time_map import (
    ApLabel,
    DayMap,
    build_day_map,
    build_profile_from_maps,
    empty_profile,
    predict_tl,
    update_profile,
)
from timeloc.trace_model import DAY_S, SCAN_PERIOD_S, Bssid


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


@pytest.fixture(scope="module")
def mixture_dataset():
    scenario = sim.mixture_scenario()
    traces, truths = sim.synth_dataset(scenario, seed=7)
    return scenario, EvalDataset.from_lists(traces, truths)


@pytest.fixture(scope="module")
def mixture_reports(mixture_dataset):
    _, dataset = mixture_dataset
    return evaluate("tls", dataset), evaluate("nn", dataset)


def test_c01_home_mining_50_of_50_under_5s():
    started = time.perf_counter()
    correct = 0
    for seed in range(50):
        scenario = sim.mining_scenario(n_days=14)
        traces, _ = sim.synth_dataset(scenario, seed=1000 + seed)
        correct += vote_home_ap(traces).winner == scenario.route.home_bssid
    elapsed = time.perf_counter() - started
    report(
        1,
        "home-AP mining",
        correct == 50 and elapsed < 5.0,
        f"{correct}/50 correct in {elapsed:.2f}s",
    )


def test_c02_simple_transport_median_error():
    started = time.perf_counter()
    scenario = sim.simple_walk_scenario()
    traces, truths = sim.synth_dataset(scenario, seed=11)
    dataset = EvalDataset.from_lists(traces, truths)
    r = evaluate("tls", dataset)
    elapsed = time.perf_counter() - started
    report(
        2,
        "simple-transport accuracy",
        r.n >= 200 and r.median_abs_s <= 90.0 and elapsed < 30.0,
        f"n={r.n} median_abs={r.median_abs_s:.1f}s in {elapsed:.1f}s",
    )


def test_c03_mixture_transport_skew(mixture_reports):
    tls, nn = mixture_reports
    ok = (
        tls.early_fraction >= 0.60
        and tls.pct_within_100s >= 0.70
        and nn.max_abs_s > tls.max_abs_s
    )
    report(
        3,
        "mixture-transport skew",
        ok,
        f"early={tls.early_fraction:.3f} within100={tls.pct_within_100s:.3f} "
        f"tls_max={tls.max_abs_s}s nn_max={nn.max_abs_s}s",
    )


def test_c04_probe_cost_contrast():
    home = Bssid("aa:00:00:00:00:ff")
    ap = Bssid("aa:00:00:00:00:01")
    ok = True
    details = []
    for size in (10, 100, 1000):
        maps = [
            DayMap(
                date(2024, 1, 1) + timedelta(days=i),
                {home: ApLabel(0, 0), ap: ApLabel(300 + i, 60)},
                60.0,
            )
            for i in range(size)
        ]
        profile = build_profile_from_maps(home, maps)
        lookups = predict_tl(profile, ap, 60).lookups
        history = NnHistory(
            HistoryPoint(frozenset({ap}), tl_seconds=i)
            for i in range(size)
        )
        _, comparisons = nn_predict(history, frozenset({ap}), seed=1)
        ok = ok and lookups == 2 and comparisons == size
        details.append(f"{size}: tls={lookups} nn={comparisons}")
    report(4, "probe-cost contrast", ok, "; ".join(details))


def test_c05_rssi_filter_sweep(mixture_dataset):
    _, dataset = mixture_dataset
    rows = sweep_rssi_filter(dataset, [None, -70])
    by_key = {(label, r.method): r for label, r in rows}
    nn_all, nn_70 = by_key[("all", "nn")], by_key[("-70", "nn")]
    ok = nn_all.probe_cost > nn_70.probe_cost and (
        nn_all.median_abs_s >= nn_70.median_abs_s - 10.0
    )
    report(
        5,
        "RSSI filter sweep",
        ok,
        f"probe all={nn_all.probe_cost:.1f} vs -70={nn_70.probe_cost:.1f}; "
        f"median all={nn_all.median_abs_s:.1f}s vs -70={nn_70.median_abs_s:.1f}s",
    )


def test_c06_relocation_flips_within_three_days():
    move_day = 10
    scenario = sim.relocation_scenario(move_day=move_day, n_days=16)
    traces, _ = sim.synth_dataset(scenario, seed=3)
    new_home = scenario.relocation.new_home_bssid
    profile = empty_profile(scenario.route.home_bssid, traces[0].day_id)
    flips_at = None
    for i, t in enumerate(traces):
        window = traces[max(0, i - 6) : i + 1]
        try:
            new_map = build_day_map(t, profile.home_bssid)
        except NoArrival:
            new_map = None
        profile = update_profile(profile, new_map, window)
        if flips_at is None and profile.home_bssid == new_home:
            flips_at = i
    ok = flips_at is not None and flips_at <= move_day + 3
    report(6, "relocation detection", ok, f"flip at day {flips_at}, moved on day {move_day}")


def test_c07_door_detection_recall_and_precision():
    scenario = sim.door_scenario(n_days=30)
    traces, truths = sim.synth_dataset(scenario, seed=5)
    home = scenario.route.home_bssid
    hits = 0
    worst_day_fp = 0
    for trace, truth in zip(traces, truths):
        events = detect_door_events(trace, home)
        hits += any(abs(e.ts - truth.door_ts) <= 10 for e in events)
        day_fp = sum(1 for e in events if abs(e.ts - truth.door_ts) > 10)
        worst_day_fp = max(worst_day_fp, day_fp)
    ok = hits >= 27 and worst_day_fp <= 1
    report(7, "door detection", ok, f"recall {hits}/30, worst day FP {worst_day_fp}")


def test_c08_fsm_scan_budget_and_accel_confinement():
    plan = sim.make_day_plan(sim.simple_walk_scenario(), 0, 42)
    oracle = sim.DayOracle(plan)
    run = drive_day(oracle)
    budget = 0.6 * (DAY_S // SCAN_PERIOD_S)  # a naive sampler scans every period all day

    windows = []
    opened = None
    for ts, tag in run.transitions:
        if tag is StateTag.HOME_ARRIVAL:
            opened = ts
        elif opened is not None:
            windows.append((opened, ts))
            opened = None
    if opened is not None:
        windows.append((opened, oracle.slice_end))
    confined = run.stats.accel_samples > 0 and all(
        any(lo <= a.ts <= hi for lo, hi in windows) for a in run.trace.accel
    )
    ok = run.stats.wifi_scans <= budget and confined
    report(
        8,
        "FSM efficiency proxy",
        ok,
        f"{run.stats.wifi_scans} scans vs budget {budget:.0f}; "
        f"{run.stats.accel_samples} accel samples all inside HomeArrival",
    )


def test_c09_cli_determinism(tmp_path, capsys):
    def run_all(root: Path) -> dict:
        root.mkdir(parents=True, exist_ok=True)
        data = root / "data"
        outputs = {}

        def cli(*argv):
            assert cli_main([str(a) for a in argv]) == 0

        cli("simulate", "--scenario", "simple", "--days", "10", "--seed", "5", "--out", data)
        cli("fsm-run", "--scenario", "simple", "--seed", "5", "--out", root / "fsm")
        cli("build-profile", "--traces", data, "--device", "dev", "--store", root / "store")
        cli("evaluate", "--traces", data, "--out", root / "rep", "--seed", "2")
        cli("sweep", "--traces", data, "--out", root / "sweep", "--levels", "all,-70", "--seed", "2")
        cli("mine-home", "--traces", data, "--out", root / "tally.csv")
        cli("detect-door", "--traces", data, "--out", root / "doors.csv")

        import json

        doc = json.loads((root / "store" / "dev.profile.json").read_text())
        bssid, (tl, tdr) = sorted(doc["window"][-1]["entries"].items())[0]
        cli("predict", "--store", root / "store", "--device", "dev",
            "--bssid", bssid, "--tdr", str(tdr))
        from timeloc.cli import _load_days

        query_ts = _load_days(str(data))[-1].scans[40].ts
        cli("predict", "--method", "nn", "--traces", data, "--ts", str(query_ts), "--seed", "2")

        for p in sorted(root.rglob("*")):
            if p.is_file():
                outputs[str(p.relative_to(root))] = p.read_bytes()
        # stdout echoes the --out paths; normalize those before comparing
        stdout = capsys.readouterr().out.replace(str(root), "<root>")
        outputs["__stdout__"] = stdout.encode()
        return outputs

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    ok = first == second and len(first) >= 10
    report(9, "CLI determinism", ok, f"{len(first)} outputs byte-identical across reruns")


def test_c10_cold_start_refusal():
    home = Bssid("aa:00:00:00:00:ff")
    ap = Bssid("aa:00:00:00:00:01")
    maps = [
        DayMap(
            date(2024, 1, 1) + timedelta(days=i),
            {home: ApLabel(0, 0), ap: ApLabel(300, 60)},
            60.0,
        )
        for i in range(6)
    ]
    profile = build_profile_from_maps(home, maps)
    raised = False
    try:
        predict_tl(profile, ap, 60)
    except ColdStart:
        raised = True

    scenario = sim.simple_walk_scenario(n_days=10)
    traces, truths = sim.synth_dataset(scenario, seed=41)
    dataset = EvalDataset.from_lists(traces, truths)
    first = dataset.traces[0].day_id
    seen = set()

    class Recorder:
        name = "recorder"

        def start_day(self, window, home_bssid):
            pass

        def predict(self, q):
            seen.add(q.day_id)
            return q.actual_tl_s, 1

    evaluate(Recorder(), dataset)
    no_first_week = seen and all((d - first).days >= 7 for d in seen)
    report(
        10,
        "cold start",
        raised and bool(no_first_week),
        f"ColdStart raised={raised}; earliest query day offset="
        f"{min((d - first).days for d in seen)}",
    )
