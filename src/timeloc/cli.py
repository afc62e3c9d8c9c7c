"""Command-line interface tying the pipeline together.

Subcommands: simulate, mine-home, build-profile, predict, detect-door,
fsm-run, evaluate, sweep.  All outputs are deterministic for a fixed
--seed; nothing is written outside --out / the profile store.  Exit codes:
0 on success, 1 on validation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path

from . import door_detect, eval_harness, home_mining, nn_baseline, sensing_fsm, simulator, time_map
from .errors import ConfigurationError, TimelocError
from .simulator import GroundTruth, TransportMode
from .trace_model import (
    RSSI_MAX_DBM,
    RSSI_MIN_DBM,
    Bssid,
    DayTrace,
    filter_trace,
    load_accel_file,
    load_trace_file,
    read_date,
    serialize_accel_samples,
    serialize_scan_records,
    slice_into_days,
)

PROFILE_STORE_ENV = "TLS_PROFILE_STORE"


def _default_store() -> str:
    return os.environ.get(PROFILE_STORE_ENV, ".")


def _write(path: str, data: bytes | str) -> None:
    """Write ``data`` to ``path``; a path that cannot be written is one TimelocError naming it."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise TimelocError(f"cannot write {path} ({exc.filename}: {exc.strerror})") from None


def _emit(args, name: str, data: bytes | str) -> None:
    _write(os.path.join(args.out, name), data)


def _refuse_file_out(args, first: str) -> None:
    """Report an --out whose nearest existing ancestor, itself included, is
    not a directory before any work, with the error that emitting
    ``first``, the command's first output, gives."""
    path = args.out
    while not os.path.lexists(path):
        path = os.path.dirname(path) or "."
    if not os.path.isdir(path):
        _emit(args, first, "")  # os.makedirs refuses it before anything is opened


_GROUND_TRUTH_HEADER = "day_id,arrival_ts,door_ts,mode"


def _ground_truth_csv(truths) -> str:
    lines = [_GROUND_TRUTH_HEADER]
    for g in truths:
        lines.append(
            f"{g.day_id.isoformat()},{g.arrival_ts},{g.door_ts},"
            f"{g.mode.name}:{g.mode.speed_factor:.4f}"
        )
    return "\n".join(lines) + "\n"


def _parse_ground_truth_csv(text: str, path: str) -> list[GroundTruth]:
    lines = text.splitlines()
    if not lines or lines[0] != _GROUND_TRUTH_HEADER:
        raise TimelocError(f"{path} line 1: the header must be {_GROUND_TRUTH_HEADER!r}")
    truths = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            day_id, arrival, door, mode = line.split(",")
            name, factor = mode.split(":")
            truths.append(
                GroundTruth(
                    day_id=read_date(day_id),
                    arrival_ts=int(arrival),
                    door_ts=int(door),
                    mode=TransportMode(name, float(factor)),
                )
            )
        except (ValueError, TimelocError) as exc:
            raise TimelocError(f"{path} line {lineno}: malformed ground truth ({exc})") from exc
    return truths


def _read_input(path: str, load, what: str):
    """``load(path)``, where a missing, unreadable or non-UTF-8 file is one
    TimelocError that names it (``what`` names a missing one's kind)."""
    try:
        return load(path)
    except FileNotFoundError:
        raise TimelocError(f"no {what} file {path}") from None
    except OSError as exc:
        raise TimelocError(f"cannot read {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise TimelocError(f"{path} is not UTF-8 ({exc.reason})") from None


def _load_days(traces_dir: str, *, with_accel: bool = False) -> list[DayTrace]:
    """The directory's trace as noon-to-noon days, the slices that hold scans.

    A trace without scans is one TimelocError naming it, so every command
    refuses it alike.  ``accel.jsonl`` is read only when ``with_accel`` is
    set, as detect-door, the one command that reads ``DayTrace.accel``,
    sets it; without it every day's ``accel`` is empty.  It never changes
    which days are read.
    """
    path = os.path.join(traces_dir, "trace.jsonl")
    records = _read_input(path, load_trace_file, "trace")
    if not records:
        raise TimelocError(f"no scans in {path}")
    accel_path = os.path.join(traces_dir, "accel.jsonl")
    accel = []
    if with_accel and os.path.exists(accel_path):
        accel = _read_input(accel_path, load_accel_file, "accel")
    return slice_into_days(records, accel)


def _load_truths(traces_dir: str) -> list[GroundTruth]:
    path = os.path.join(traces_dir, "ground_truth.csv")
    text = _read_input(path, lambda p: Path(p).read_text(encoding="utf-8"), "ground truth")
    return _parse_ground_truth_csv(text, path)


def _parse_threshold(text: str) -> int | None:
    level = None if text == "all" else int(text)
    if level is not None and not RSSI_MIN_DBM <= level <= RSSI_MAX_DBM:
        raise argparse.ArgumentTypeError(
            f"RSSI level must be within [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}] dBm, got {level}"
        )
    return level


def _parse_levels(text: str) -> list[int | None]:
    return [_parse_threshold(x.strip()) for x in text.split(",") if x.strip()]


def _parse_bssid(text: str) -> Bssid:
    try:
        return Bssid(text)
    except TimelocError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_day(text: str) -> date:
    try:
        return read_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid date (YYYY-MM-DD): {text!r}") from None


def _int_at_least(minimum: int):
    """An argparse type: an int of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _render(scenario_name: str, render, *args):
    """``render(*args)``, where a day that cannot be rendered is one error naming the scenario file."""
    try:
        return render(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(f"malformed scenario file {scenario_name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    scenario = simulator.resolve_scenario(args.scenario, n_days=args.days)
    traces, truths = _render(args.scenario, simulator.synth_dataset, scenario, args.seed)
    records = [r for t in traces for r in t.scans]
    accel = [a for t in traces for a in t.accel]
    _emit(args, "trace.jsonl", serialize_scan_records(records))
    _emit(args, "accel.jsonl", serialize_accel_samples(accel))
    _emit(args, "ground_truth.csv", _ground_truth_csv(truths))
    print(f"wrote {len(traces)} day(s) to {args.out}")
    return 0


def _tally_csv(vote) -> str:
    lines = ["bssid,votes"]
    for bssid, votes in sorted(vote.tally.items()):
        lines.append(f"{bssid},{votes}")
    lines.append(f"winner,{vote.winner},confidence,{vote.confidence:.4f}")
    return "\n".join(lines) + "\n"


def _cmd_mine_home(args) -> int:
    days = _load_days(args.traces)
    vote = home_mining.vote_home_ap(days)
    text = _tally_csv(vote)
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return 0


def _cmd_build_profile(args) -> int:
    """Fold each day read with ``update_profile`` over the ``--window-days``
    read days ending at it, from the first ballot cast: before its day no
    window votes, so no fold moves the home.  The document holds no ballots."""
    days = _load_days(args.traces)
    first_ballot = next(filter(None, map(home_mining.day_vote, days)), None)
    # The tally of one ballot is that ballot; of none, mine-home's NoNightData.
    home = home_mining.tally_votes([first_ballot]).winner
    profile = time_map.empty_profile(home, days[0].day_id)
    for i, day in enumerate(days):
        new_map = time_map.build_day_map(day, profile.home_bssid)
        window_traces = days[max(0, i - args.window_days + 1) : i + 1]
        profile = time_map.update_profile(profile, new_map, window_traces, args.window_days)
    path = time_map.save_profile(replace(profile, ballots={}), args.store, args.device)
    print(
        f"profile for {args.device}: home {profile.home_bssid}, "
        f"{len(profile.window)} window day(s), {len(profile.fallback)} fallback "
        f"entries -> {path}"
    )
    return 0


def _cmd_predict(args) -> int:
    if args.method == "tls":
        if not args.bssid or args.tdr is None:
            raise TimelocError("tls prediction needs --bssid and --tdr")
        profile = time_map.load_profile(args.store, args.device)
        p = time_map.predict_tl(profile, args.bssid, args.tdr)
        print(f"tl_s={p.tl_seconds},source={p.source},bssid={args.bssid},lookups={p.lookups}")
        return 0
    # nearest-neighbor: filter the days at the level, as evaluate does, then
    # locate the query scan and build history from the window
    if args.traces is None or args.ts is None:
        raise TimelocError("nn prediction needs --traces and --ts")
    days = [filter_trace(d, args.threshold) for d in _load_days(args.traces)]
    day = next((d for d in days if d.scans[0].ts <= args.ts <= d.scans[-1].ts), None)
    if day is None:
        raise TimelocError(f"no day contains ts {args.ts}")
    scan = next((s for s in day.scans if s.ts == args.ts), None)
    if scan is None:
        raise TimelocError(f"no scan at ts {args.ts}")
    window = home_mining.days_before(days, day.day_id, time_map.WINDOW_DAYS)
    if not window:
        raise TimelocError("no history days before the query day")
    home = home_mining.vote_home_ap(window).winner
    history = nn_baseline.build_history(window, home)
    tl_s, comparisons = nn_baseline.nn_predict(history, nn_baseline.filter_env(scan), seed=args.seed)
    print(f"tl_s={tl_s},source=nn,comparisons={comparisons}")
    return 0


def _cmd_detect_door(args) -> int:
    days = _load_days(args.traces, with_accel=True)
    if args.day is not None and all(d.day_id != args.day for d in days):
        raise TimelocError(f"no trace for day {args.day}")
    if args.home:
        homes = [args.home] * len(days)
    else:
        votes = [home_mining.day_vote(d) for d in days]
        homes = home_mining.window_homes(votes, time_map.WINDOW_DAYS)
    lines = ["ts"]
    for day, home in zip(days, homes):
        if home is not None and args.day in (None, day.day_id):
            events = door_detect.detect_door_events(day, home)
            lines.extend(str(event.ts) for event in events)
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return 0


def _cmd_fsm_run(args) -> int:
    scenario = simulator.resolve_scenario(args.scenario)
    plan = simulator.make_day_plan(scenario, args.day, args.seed)
    oracle = _render(args.scenario, simulator.DayOracle, plan)
    trace, stats = sensing_fsm.run_fsm_day(oracle)
    _emit(args, "sensed.jsonl", serialize_scan_records(trace.scans))
    _emit(args, "sensed_accel.jsonl", serialize_accel_samples(trace.accel))
    stats_csv = (
        "wifi_scans,gps_reads,accel_samples,wakeups\n"
        f"{stats.wifi_scans},{stats.gps_reads},{stats.accel_samples},{stats.wakeups}\n"
    )
    _emit(args, "stats.csv", stats_csv)
    print(
        f"sensed {stats.wifi_scans} scans, {stats.gps_reads} GPS reads, "
        f"{stats.accel_samples} accel samples over {stats.wakeups} wakeups"
    )
    return 0


def _cmd_evaluate(args) -> int:
    dataset = eval_harness.EvalDataset.from_lists(_load_days(args.traces), _load_truths(args.traces))
    methods = ("tls", "nn") if args.method == "both" else (args.method,)
    _refuse_file_out(args, f"cdf_{methods[0]}.csv")
    label = "all" if args.threshold is None else str(args.threshold)
    rows = []
    for method in methods:
        report = eval_harness.evaluate(
            method, dataset, level_dbm=args.threshold, seed=args.seed
        )
        rows.append((label, report))
        _emit(args, f"cdf_{method}.csv", eval_harness.cdf_csv(report))
    _emit(args, "report.csv", eval_harness.report_csv(rows))
    for _, r in rows:
        print(
            f"{r.method}: n={r.n} median_abs={r.median_abs_s:.1f}s "
            f"within100={r.pct_within_100s:.2f} early={r.early_fraction:.2f} "
            f"probe_cost={r.probe_cost:.1f}"
        )
    return 0


def _cmd_sweep(args) -> int:
    dataset = eval_harness.EvalDataset.from_lists(_load_days(args.traces), _load_truths(args.traces))
    if len(args.levels) < 2:
        raise TimelocError("sweep needs at least two levels, e.g. --levels all,-70")
    _refuse_file_out(args, "sweep.csv")
    rows = eval_harness.sweep_rssi_filter(dataset, args.levels, seed=args.seed)
    _emit(args, "sweep.csv", eval_harness.report_csv(rows))
    for label, r in rows:
        print(f"level={label} {r.method}: median_abs={r.median_abs_s:.1f}s probe_cost={r.probe_cost:.1f}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeloc",
        description="Arrival-time localization from WiFi scan traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    week = time_map.WINDOW_DAYS

    def add(name, func, help_text):
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        return p

    p = add("simulate", _cmd_simulate, "generate a synthetic dataset")
    p.add_argument("--scenario", required=True, help="scenario file or preset name")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--days", type=_int_at_least(1), default=None, help="override the scenario day count")
    p.add_argument("--out", required=True, help="output directory")

    p = add("mine-home", _cmd_mine_home, "vote for the home AP from nightly dwell")
    p.add_argument("--traces", required=True, help="directory with trace.jsonl")
    p.add_argument("--out", default=None, help="also write the tally CSV here")

    p = add("build-profile", _cmd_build_profile, "build and store a user profile")
    p.add_argument("--traces", required=True, help="directory with trace.jsonl")
    p.add_argument("--device", required=True, help="device id naming the profile file")
    p.add_argument("--store", default=_default_store(), help=f"profile store (or ${PROFILE_STORE_ENV})")
    p.add_argument("--window-days", type=_int_at_least(week), default=week, help="sliding window length")

    p = add("predict", _cmd_predict, "predict seconds-to-home")
    p.add_argument("--method", choices=("tls", "nn"), default="tls", help="prediction method")
    p.add_argument("--store", default=_default_store(), help=f"profile store (or ${PROFILE_STORE_ENV})")
    p.add_argument("--device", default="device", help="profile device id")
    p.add_argument("--bssid", type=_parse_bssid, default=None, help="just-lost AP (tls)")
    p.add_argument("--tdr", type=_int_at_least(0), default=None, help="observed reachable seconds (tls)")
    p.add_argument("--traces", default=None, help="trace directory (nn)")
    p.add_argument("--ts", type=int, default=None, help="query scan timestamp (nn)")
    p.add_argument("--threshold", type=_parse_threshold, default=-70, help="RSSI filter level (nn)")
    p.add_argument("--seed", type=int, default=0, help="tie-break seed (nn)")

    p = add("detect-door", _cmd_detect_door, "detect door-opening events")
    p.add_argument("--traces", required=True, help="directory with trace.jsonl")
    p.add_argument("--day", type=_parse_day, default=None, help="restrict to one day (YYYY-MM-DD)")
    p.add_argument("--home", type=_parse_bssid, default=None, help="home BSSID override")
    p.add_argument("--out", default=None, help="also write the events CSV here")

    p = add("fsm-run", _cmd_fsm_run, "run the duty-cycled sensing day")
    p.add_argument("--scenario", required=True, help="scenario file or preset name")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--day", type=_int_at_least(0), default=0, help="scenario day index")
    p.add_argument("--out", required=True, help="output directory")

    p = add("evaluate", _cmd_evaluate, "error report for tls/nn predictions")
    p.add_argument("--method", choices=("tls", "nn", "both"), default="both", help="method(s) to run")
    p.add_argument("--traces", required=True, help="directory with trace.jsonl + ground_truth.csv")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--threshold", type=_parse_threshold, default="-70", help='RSSI filter level or "all"')
    p.add_argument("--seed", type=int, default=0, help="nn tie-break seed")

    p = add("sweep", _cmd_sweep, "evaluate across RSSI filter levels")
    p.add_argument("--traces", required=True, help="directory with trace.jsonl + ground_truth.csv")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--levels", type=_parse_levels, default="all,-70", help="comma-separated levels")
    p.add_argument("--seed", type=int, default=0, help="nn tie-break seed")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return status
    except TimelocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the interpreter's
        # final flush cannot fail again, and exit 1 with nothing on stderr.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
