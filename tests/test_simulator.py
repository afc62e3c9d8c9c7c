import contextlib
import math
import random
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import replace
from datetime import date
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloc import simulator as sim
from timeloc.errors import ConfigurationError
from timeloc.home_mining import GAP_CAP_S, NIGHT_CLOSE_S, NIGHT_OPEN_S, day_vote, nightly_dwell
from timeloc.sensing_fsm import run_fsm_day
from timeloc.trace_model import (
    DAY_S,
    NOON_SOD,
    AccelSample,
    ApObservation,
    Bssid,
    DayTrace,
    GpsFix,
    RenderedOnRead,
    ScanRecord,
    day_slice_start,
    filter_trace,
    parse_accel_file,
    parse_trace_file,
    serialize_accel_samples,
    serialize_scan_records,
    slice_into_days,
    ts_of,
)
from util import NOISE_VARIANTS, OTHER_ISO_DATES, commute_day, day_plans


def noiseless_day(route, mode=sim.WALK, seed=0):
    return commute_day(route, mode, sim.NoiseParams(), seed=seed)


def visibility(trace, bssid, until=None):
    ts = [
        s.ts
        for s in trace.scans
        if any(o.bssid == bssid for o in s.aps) and (until is None or s.ts <= until)
    ]
    return (min(ts), max(ts)) if ts else None


class TestSynthDay:
    def test_noiseless_schedule_is_exact(self):
        route = sim.make_chain_route(weak_bridge=False)
        trace, truth = noiseless_day(route)
        depart = trace.scans[0].ts
        home_enter = depart + (route.route_duration_s - sim.HOME_RANGE_S)
        assert truth.arrival_ts == home_enter  # offsets sit on the scan grid
        first_home = min(
            s.ts for s in trace.scans if any(o.bssid == route.home_bssid for o in s.aps)
        )
        assert first_home == truth.arrival_ts

    def test_speed_factor_halves_coverage(self):
        route = sim.make_chain_route(weak_bridge=False)
        walk_trace, _ = noiseless_day(route, sim.WALK)
        cycle_trace, _ = noiseless_day(route, sim.TransportMode("cycle", 2.0))
        depart_w = walk_trace.scans[0].ts
        depart_c = cycle_trace.scans[0].ts
        for p in route.aps:
            w0, w1 = visibility(walk_trace, p.bssid, until=depart_w + 700)
            c0, c1 = visibility(cycle_trace, p.bssid, until=depart_c + 700)
            assert abs((c0 - depart_c) * 2 - (w0 - depart_w)) <= 5
            assert abs((w1 - w0) - 2 * (c1 - c0)) <= 10  # grid rounding on both ends

    def test_fixed_seed_reproduces_bytes(self):
        route = sim.make_chain_route()
        noise = sim.NoiseParams(rssi_sigma_db=4.0, dropout_prob=0.05)
        a, _ = commute_day(route, sim.WALK, noise, seed=33)
        b, _ = commute_day(route, sim.WALK, noise, seed=33)
        assert serialize_scan_records(a.scans) == serialize_scan_records(b.scans)

    def test_route_without_home_is_a_configuration_error(self):
        # the home AP is not on the route: a route AP with its BSSID would
        # be a second source for that BSSID
        route = sim.make_chain_route()
        with pytest.raises(ConfigurationError, match="a route AP cannot be the home AP"):
            replace(route, home_bssid=route.aps[-1].bssid)

    @pytest.mark.parametrize("duration_s", [sim.HOME_RANGE_S - 10, sim.HOME_RANGE_S])
    def test_route_not_longer_than_the_home_range_is_a_configuration_error(self, duration_s):
        # the home would come into range before the departure, and the day
        # would plant its arrival before its first scan
        with pytest.raises(ConfigurationError, match=f"route duration {duration_s} s must exceed the home range"):
            sim.make_chain_route(ap_count=2, duration_s=duration_s, coverage_s=20)
        route = sim.make_chain_route(ap_count=2, duration_s=sim.HOME_RANGE_S + 1, coverage_s=20)
        plan = sim.make_day_plan(replace(sim.mining_scenario(), route=route), 0, 0)
        trace, truth = sim.synth_plan_day(plan)
        assert trace.scans[0].ts == plan.depart_ts < truth.arrival_ts

    def test_door_event_timing_invariant(self):
        route = sim.make_chain_route()
        _, truth = commute_day(route, sim.WALK, sim.NoiseParams(), seed=4)
        assert truth.arrival_ts - 60 <= truth.door_ts <= truth.arrival_ts + 120

    def test_dropout_never_hides_home_at_arrival(self):
        route = sim.make_chain_route()
        noise = sim.NoiseParams(rssi_sigma_db=4.0, dropout_prob=0.9)
        trace, truth = commute_day(route, sim.WALK, noise, seed=6)
        at_arrival = next(s for s in trace.scans if s.ts == truth.arrival_ts)
        assert any(o.bssid == route.home_bssid for o in at_arrival.aps)


class TestSynthDataset:
    def test_day_count_and_ids(self):
        scenario = sim.simple_walk_scenario(n_days=7)
        traces, truths = sim.synth_dataset(scenario, seed=1)
        assert len(traces) == len(truths) == 7
        assert [t.day_id for t in traces] == sorted({t.day_id for t in traces})

    def test_arrival_matches_first_home_scan_every_day(self):
        scenario = sim.mixture_scenario(n_days=10)
        traces, truths = sim.synth_dataset(scenario, seed=2)
        home = scenario.route.home_bssid
        for t, g in zip(traces, truths):
            first_home = min(s.ts for s in t.scans if any(o.bssid == home for o in s.aps))
            assert first_home == g.arrival_ts

    def test_forced_detour_delays_every_arrival(self):
        base = sim.simple_walk_scenario(n_days=6)
        with_detours = replace(base, detour_prob=1.0, detour_duration_s=300)
        without = replace(base, detour_prob=0.0, detour_duration_s=300)
        t1, g1 = sim.synth_dataset(with_detours, seed=9)
        t0, g0 = sim.synth_dataset(without, seed=9)
        for a, b in zip(g1, g0):
            assert a.arrival_ts - b.arrival_ts == 300

    def test_mode_mixture_counts_within_binomial_band(self):
        scenario = sim.mixture_scenario(n_days=200)
        _, truths = sim.synth_dataset(scenario, seed=17)
        walks = sum(1 for g in truths if g.mode.name == "walk")
        # exact central 99% binomial(200, 0.5) interval, computed here
        probs = [math.comb(200, k) / 2**200 for k in range(201)]
        lo = next(k for k in range(201) if sum(probs[: k + 1]) > 0.005)
        hi = next(k for k in range(200, -1, -1) if sum(probs[k:]) > 0.005)
        assert lo <= walks <= hi

    def test_per_day_seeds_are_order_independent(self):
        scenario = sim.simple_walk_scenario(n_days=5)
        full, _ = sim.synth_dataset(scenario, seed=3)
        day3_plan = sim.make_day_plan(scenario, 3, 3)
        alone, _ = sim.synth_plan_day(day3_plan)
        assert serialize_scan_records(alone.scans) == serialize_scan_records(full[3].scans)

    def test_relocation_switches_home_and_night_presence(self):
        scenario = sim.relocation_scenario(move_day=3, n_days=6)
        traces, _ = sim.synth_dataset(scenario, seed=5)
        old, new = scenario.route.home_bssid, sim.NEW_HOME_BSSID
        from timeloc.home_mining import nightly_dwell

        before = nightly_dwell(traces[1])
        after = nightly_dwell(traces[4])
        assert old in before and new not in before
        assert new in after and old not in after


class TestScenarioValidation:
    def test_probability_bounds(self):
        route = sim.make_chain_route()
        with pytest.raises(ConfigurationError):
            sim.ScenarioSpec(route=route, n_days=5, mode_schedule=sim.ModeMix(((sim.WALK, 1.0),)), detour_prob=1.5)

    def test_day_count(self):
        route = sim.make_chain_route()
        with pytest.raises(ConfigurationError):
            sim.ScenarioSpec(route=route, n_days=0, mode_schedule=sim.ModeMix(((sim.WALK, 1.0),)))

    def test_placement_bounds(self):
        with pytest.raises(ConfigurationError):
            sim.ApPlacement(Bssid("aa:00:00:00:00:01"), 100, 50, -50)
        with pytest.raises(ConfigurationError):
            sim.ApPlacement(Bssid("aa:00:00:00:00:01"), 0, 50, -20)

    def test_mode_weights(self):
        # random.choices raised ValueError on a zero total when a day was planned
        for weights in ((0.0,), (0.0, 0.0), (1.0, -0.5)):
            with pytest.raises(ConfigurationError):
                sim.ModeMix(tuple((sim.WALK, w) for w in weights))

    def test_night_scan_period(self):
        # a zero period never advanced the night scan schedule
        for period in (0, -600):
            with pytest.raises(ConfigurationError):
                sim.NightDwellSpec(scan_period_s=period)


def test_scenario_file_round_trip(tmp_path):
    text = """
[route]
ap_count = 8
duration_s = 400
coverage_s = 80
weak_bridge = false

[modes]
walk = 1.0 0.7
cycle = 2.0 0.3
speed_jitter = 0.04

[days]
n_days = 9
start_day = 2024-03-01
depart = 18:30
depart_jitter_s = 120
detour_prob = 0.1
detour_duration_s = 60

[noise]
rssi_sigma_db = 3.0
dropout_prob = 0.02

[night]
scan_period_s = 300
morning_depart = 07:30
neighbor_count = 2
neighbor_dwell_s = 3600
"""
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    scenario = sim.load_scenario(path)
    assert scenario.n_days == 9
    assert scenario.start_day == date(2024, 3, 1)
    assert scenario.depart_sod == 18 * 3600 + 1800
    assert scenario.noise.rssi_sigma_db == 3.0
    assert scenario.night_dwell.scan_period_s == 300
    assert {m.name for m, _ in scenario.mode_schedule.modes} == {"walk", "cycle"}
    traces, truths = sim.synth_dataset(scenario, seed=1)
    assert len(traces) == 9


@pytest.mark.parametrize("text", OTHER_ISO_DATES)
def test_a_start_day_that_is_not_yyyy_mm_dd_is_refused(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(f"[days]\nstart_day = {text}\n")
    with pytest.raises(ConfigurationError) as exc:
        sim.load_scenario(str(path))
    assert str(exc.value) == f"malformed scenario file {str(path)!r}: Invalid isoformat string: '{text}'"


def test_the_readme_scenario_file_loads_as_the_mixture_preset(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "scenario.ini"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    assert sim.load_scenario(path) == sim.mixture_scenario()


def test_default_keys_are_keys_of_every_section(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[DEFAULT]\nn_days = 5\n\n[days]\n")
    assert sim.load_scenario(path).n_days == 5


def test_a_relocation_file_moves_home_on_its_move_day(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[days]\nn_days = 5\n\n[relocation]\nmove_day = 3\n")
    scenario = sim.load_scenario(path)
    assert scenario.move_day == 3
    homes = [sim.make_day_plan(scenario, i, 0).route.home_bssid for i in range(5)]
    assert homes == [scenario.route.home_bssid] * 3 + [sim.NEW_HOME_BSSID] * 2
    assert sim.NEW_HOME_BSSID != scenario.route.home_bssid


def test_a_move_changes_only_the_routes_home():
    scenario = sim.relocation_scenario(move_day=4, n_days=8)
    moved = replace(scenario.route, home_bssid=sim.NEW_HOME_BSSID)
    for day in range(scenario.n_days):
        route = sim.make_day_plan(scenario, day, 11).route
        assert route == (scenario.route if day < scenario.move_day else moved), day


@settings(max_examples=100, deadline=None)
@given(
    preset=st.sampled_from(sorted(sim.SCENARIO_PRESETS)),
    seed=st.integers(0, 2**32 - 1),
    day=st.integers(0, 40),
)
def test_every_preset_day_fits_its_slice(preset, seed, day):
    oracle = sim.DayOracle(sim.make_day_plan(sim.SCENARIO_PRESETS[preset](), day, seed))
    assert oracle.slice_start <= min(oracle.depart_ts, oracle.arrival_ts - 60)
    assert oracle.door_ts + 30 < oracle.morning_depart_ts


def test_a_relocation_before_day_zero_is_refused():
    assert sim.relocation_scenario(move_day=0, n_days=4).move_day == 0
    with pytest.raises(ConfigurationError, match="move_day must be >= 0"):
        replace(sim.simple_walk_scenario(4), move_day=-1)
    with pytest.raises(ConfigurationError, match="move_day must be >= 0"):
        sim.relocation_scenario(move_day=-3, n_days=4)


def test_a_negative_depart_jitter_or_detour_is_refused():
    scenario = sim.simple_walk_scenario(4)
    assert replace(scenario, depart_time_jitter_s=0, detour_duration_s=0).detour_duration_s == 0
    with pytest.raises(ConfigurationError, match="depart_time_jitter_s must be >= 0"):
        replace(scenario, depart_time_jitter_s=-1)
    with pytest.raises(ConfigurationError, match="detour_duration_s must be >= 0"):
        replace(scenario, detour_prob=1.0, detour_duration_s=-10000)


def test_resolve_scenario_preset_and_unknown():
    assert sim.resolve_scenario("simple").n_days == 24
    assert sim.resolve_scenario("simple", n_days=9).n_days == 9
    with pytest.raises(ConfigurationError):
        sim.resolve_scenario("nonsense-preset")


def test_a_directory_does_not_shadow_a_preset(tmp_path, monkeypatch):
    (tmp_path / "simple").mkdir()
    (tmp_path / "outputs").mkdir()
    monkeypatch.chdir(tmp_path)
    assert sim.resolve_scenario("simple") == sim.simple_walk_scenario()
    with pytest.raises(ConfigurationError, match="neither a file nor a preset"):
        sim.resolve_scenario("outputs")


# ---------------------------------------------------------------------------
# the visibility timeline against a per-window reference


def reference_windows(oracle):
    """Each source's [start, end) interval, derived from the plan on its own."""
    plan = oracle.plan
    route = plan.route
    f = plan.mode.speed_factor
    duration = route.route_duration_s
    start = day_slice_start(plan.day_id)
    md = start + (plan.night.morning_depart_sod - NOON_SOD) % DAY_S
    routes = []
    depart = plan.depart_ts
    home = (
        depart + round((duration - sim.HOME_RANGE_S) / f) + plan.detour_s,
        md + round(sim.HOME_RANGE_S / f),
    )
    for p in route.aps:
        routes.append(
            (p.bssid, depart + round(p.enter_offset_s / f), depart + round(p.exit_offset_s / f), p.peak_rssi_dbm)
        )
        routes.append(
            (
                p.bssid,
                md + round((duration - min(p.exit_offset_s, duration)) / f),
                md + round((duration - p.enter_offset_s) / f),
                p.peak_rssi_dbm,
            )
        )
    nrng = random.Random(sim._mix(plan.seed, "night"))
    span = NIGHT_CLOSE_S - NIGHT_OPEN_S
    neighbors = []
    for i in range(plan.night.neighbor_count):
        dwell = min(plan.night.neighbor_dwell_s, span)
        begin = start + NIGHT_OPEN_S + nrng.randint(0, span - dwell)
        neighbors.append((sim.bssid_from_int(0x2000_00 + i), begin, begin + dwell))
    spikes = [sim.bssid_from_int(0x3000_00 + i) for i in range(3)]
    return routes, home, neighbors, spikes


def _unit(base, i):
    """i-th uniform draw in (0, 1] for a keyed stream, one hash per call."""
    return ((sim._sm64(base + i * sim._GOLD) >> 11) + 1) / (2**53 + 1)


def _gauss(base, i, sigma):
    """Box-Muller normal deviate consuming draws i and i+1."""
    u1 = _unit(base, i)
    u2 = _unit(base, i + 1)
    return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def reference_stream_base(plan, stream, ts):
    """The keyed stream of one second: 1 for the scan, 2 for the accelerometer."""
    return sim._sm64(sim._mix(plan.seed, "obs") * sim._GOLD + ts * sim._STEP + stream)


def reference_aps_at(oracle, windows, ts):
    """Test every source's window at ts, in draw order."""
    routes, (h_start, h_end), neighbors, spikes = windows
    base_key = reference_stream_base(oracle.plan, 1, ts)
    sigma = oracle.plan.noise.rssi_sigma_db
    p_drop = oracle.plan.noise.dropout_prob
    draw = 0
    obs = {}

    def observe(bssid, level, can_drop):
        nonlocal draw
        value = level
        if sigma:
            value += _gauss(base_key, draw, sigma)
            draw += 2
        if can_drop and p_drop:
            u = _unit(base_key, draw)
            draw += 1
            if u < p_drop:
                return
        obs[bssid] = max(-120, min(0, round(value)))

    for bssid, start, end, peak in routes:
        if start <= ts < end:
            observe(bssid, oracle._trapezoid(peak, start, end, ts), True)
    if h_start <= ts < h_end:
        level = sim.HOME_PEAK_DBM
        if oracle.door_ts <= ts < oracle.door_ts + 10:
            level -= 8.0
        # the plant never drops at the arrival second or from door_ts - 1 to door_ts + 11
        protected = ts == oracle.arrival_ts or oracle.door_ts - 1 <= ts <= oracle.door_ts + 11
        observe(oracle.home_bssid, level, not protected)
    for bssid, begin, end in neighbors:
        if begin <= ts < end:
            observe(bssid, -65.0, True)
    if oracle.door_ts <= ts < oracle.door_ts + sim.SCAN_PERIOD_S:
        for bssid in spikes:
            observe(bssid, -67.0, False)
    return tuple(ApObservation(b, r) for b, r in sorted(obs.items()))


@settings(max_examples=150, deadline=None)
@given(
    preset=st.sampled_from(["simple", "mining", "mixture", "relocation"]),
    seed=st.integers(0, 2**32 - 1),
    day=st.integers(0, 40),
    noise=st.sampled_from(sorted(NOISE_VARIANTS)),
    offsets=st.lists(st.integers(0, DAY_S - 1), max_size=20),
)
def test_timeline_matches_the_per_window_reference(preset, seed, day, noise, offsets):
    plan = sim.make_day_plan(sim.SCENARIO_PRESETS[preset](), day, seed)
    plan = replace(plan, noise=NOISE_VARIANTS[noise](plan.noise))
    oracle = sim.DayOracle(plan)
    windows = reference_windows(oracle)
    routes, home, neighbors, _ = windows
    edges = {t for w in routes for t in w[1:3]} | set(home) | {t for w in neighbors for t in w[1:]}
    probes = {t + d for t in edges for d in (-1, 0, 1)}
    probes |= set(range(oracle.door_ts - 1, oracle.door_ts + 12))
    probes |= {oracle.arrival_ts, oracle.slice_start - 1, oracle.slice_end, oracle.slice_end + 3600}
    probes |= {oracle.slice_start + off for off in offsets}
    for ts in sorted(probes):
        assert oracle.aps_at(ts) == reference_aps_at(oracle, windows, ts), ts


# ---------------------------------------------------------------------------
# accelerometer and GPS against copies of the per-call bodies


def reference_gps_windows(oracle):
    """The evening (depart, arrival) and morning GPS windows, both closed."""
    plan = oracle.plan
    md = day_slice_start(plan.day_id) + (plan.night.morning_depart_sod - NOON_SOD) % DAY_S
    return [
        (plan.depart_ts, oracle.arrival_ts),
        (md, md + round(plan.route.route_duration_s / plan.mode.speed_factor)),
    ]


def reference_accel_at(oracle, ts):
    plan = oracle.plan
    base_key = reference_stream_base(plan, 2, ts)
    if abs(ts - oracle.door_ts) <= 2:
        wobble = 0.04 * _unit(base_key, 0) - 0.02
        return round(9.81 + wobble, 3)
    if oracle.arrival_ts - 60 <= ts <= oracle.door_ts + 30:
        swing = 1.8 if ts % 2 == 0 else -1.8
        return round(max(0.0, 9.8 + swing + _gauss(base_key, 0, 0.3)), 3)
    return round(9.81 + _gauss(base_key, 0, 0.01), 3)


def reference_gps_at(oracle, ts):
    windows = reference_gps_windows(oracle)
    if not any(start <= ts <= end for start, end in windows):
        return None
    plan = oracle.plan
    speed_mps = sim.BASE_SPEED_MPS * plan.mode.speed_factor
    (depart, arrival), (md, _) = windows
    if depart <= ts <= arrival:
        home_enter = reference_windows(oracle)[1][0]
        dist_m = speed_mps * max(0, home_enter - ts)
    else:
        dist_m = speed_mps * max(0, ts - md)
    home_fix = plan.route.home_fix
    return GpsFix(home_fix.lat_deg + dist_m / sim.M_PER_DEG_LAT, home_fix.lon_deg)


@st.composite
def day_oracles(draw):
    """An oracle for any preset day and noise variant."""
    preset = draw(st.sampled_from(["simple", "mining", "mixture", "relocation"]))
    plan = sim.make_day_plan(sim.SCENARIO_PRESETS[preset](), draw(st.integers(0, 40)), draw(st.integers(0, 2**32 - 1)))
    plan = replace(plan, noise=NOISE_VARIANTS[draw(st.sampled_from(sorted(NOISE_VARIANTS)))](plan.noise))
    return sim.DayOracle(plan)


def sensor_probes(oracle, offsets):
    """door_ts +- 3, both edges of the walk and GPS windows +- 1, and the offsets."""
    edges = [oracle.arrival_ts - 60, oracle.door_ts + 30]
    edges += [t for window in reference_gps_windows(oracle) for t in window]
    probes = {t + d for t in edges for d in (-1, 0, 1)}
    probes |= set(range(oracle.door_ts - 3, oracle.door_ts + 4))
    probes |= {oracle.slice_start + off for off in offsets}
    return sorted(probes)


@settings(max_examples=150, deadline=None)
@given(oracle=day_oracles(), offsets=st.lists(st.integers(0, DAY_S - 1), max_size=20))
def test_accel_matches_the_per_call_reference(oracle, offsets):
    for ts in sensor_probes(oracle, offsets):
        assert oracle.accel_at(ts) == reference_accel_at(oracle, ts), ts


@settings(max_examples=150, deadline=None)
@given(oracle=day_oracles(), offsets=st.lists(st.integers(0, DAY_S - 1), max_size=20))
def test_gps_matches_the_per_call_reference(oracle, offsets):
    for ts in sensor_probes(oracle, offsets):
        fix = reference_gps_at(oracle, ts)
        assert oracle.gps_at(ts) == fix, ts


# ---------------------------------------------------------------------------
# quiet stretches against the per-window reference


def reference_quiet_until(oracle, ts):
    """The first second in [ts, slice_end) inside a source, GPS or connection
    window, else slice_end: each half-open window [a, b) first holds a
    second at or after ts at max(a, ts), when that is before b."""
    routes, home, neighbors, _ = reference_windows(oracle)
    gps = reference_gps_windows(oracle)
    door = oracle.door_ts
    spans = [w[1:3] for w in routes] + [home] + [w[1:] for w in neighbors]
    spans += [(door, door + sim.SCAN_PERIOD_S), (door + 20, gps[1][0])]
    spans += [(a, b + 1) for a, b in gps]
    return min([oracle.slice_end] + [max(a, ts) for a, b in spans if max(a, ts) < b])


@settings(max_examples=150, deadline=None)
@given(oracle=day_oracles(), offsets=st.lists(st.integers(0, DAY_S - 1), max_size=20))
def test_quiet_until_matches_the_window_reference(oracle, offsets):
    """Exact against the reference on every window edge +- 1 and the offsets,
    and never later than the first active source, fix or connection: every
    sensor reads nothing at a probe that the oracle calls quiet."""
    routes, home, neighbors, _ = reference_windows(oracle)
    edges = {t for w in routes for t in w[1:3]} | set(home) | {t for w in neighbors for t in w[1:]}
    edges |= {t for window in reference_gps_windows(oracle) for t in window}
    edges |= {oracle.door_ts, oracle.door_ts + 20, oracle.slice_start, oracle.slice_end}
    probes = {t + d for t in edges for d in (-1, 0, 1)}
    probes |= {oracle.slice_start + off for off in offsets}
    for ts in sorted(probes):
        first = oracle.quiet_until(ts)
        assert first == reference_quiet_until(oracle, ts), ts
        if first > ts:
            for t in (ts, first - 1):
                assert oracle.aps_at(t) == () and oracle.gps_at(t) is None and oracle.connected_at(t) is None, t


def test_an_oracle_builds_each_observation_once():
    oracle = sim.DayOracle(sim.make_day_plan(sim.mining_scenario(), 0, 1000))
    observed = [o for ts in oracle.scan_instants() for o in oracle.aps_at(ts)]
    assert len({id(o) for o in observed}) == len(set(observed)) < len(observed)


@given(base=st.integers(0, 2**70), i=st.integers(0, 8))
def test_draw_is_the_keyed_unit(base, i):
    assert sim._draw(base + i * sim._GOLD) == _unit(base, i)


# ---------------------------------------------------------------------------
# a simulated day renders on read


def eager_day(plan):
    """The day rendered whole up front, every item through its constructor."""
    oracle = sim.DayOracle(plan)
    scans = tuple(
        ScanRecord.recorded(ts, oracle.gps_at(ts), oracle.connected_at(ts), oracle.aps_at(ts))
        for ts in oracle.scan_instants()
    )
    accel = tuple(AccelSample(ts, oracle.accel_at(ts)) for ts in oracle.accel_instants())
    return DayTrace(plan.day_id, scans, accel)


FIELDS = ("scans", "accel")


@settings(max_examples=60, deadline=None)
@given(plan=day_plans(), data=st.data())
def test_a_lazy_day_reads_the_eager_items_in_any_order(plan, data):
    lazy, _ = sim.synth_plan_day(plan)
    eager = eager_day(plan)
    for field in FIELDS:
        items, want = getattr(lazy, field), getattr(eager, field)
        n = len(want)
        for i in data.draw(st.lists(st.integers(-n, n - 1), max_size=20)) + data.draw(st.permutations(range(n))):
            assert items[i] == want[i], (field, i)
        # reading by index keeps the sequence, and each read item
        assert getattr(lazy, field) is items and items[-1] is items[n - 1]


@settings(max_examples=60, deadline=None)
@given(plan=day_plans(), data=st.data())
def test_a_lazy_day_reads_as_its_eager_tuple(plan, data):
    lazy, _ = sim.synth_plan_day(plan)
    eager = eager_day(plan)
    for field in FIELDS:
        items, want = getattr(lazy, field), getattr(eager, field)
        assert isinstance(items, RenderedOnRead) and len(items) == len(want)
        for probe in data.draw(st.lists(st.integers(want[0].ts - 10, want[-1].ts + 10), max_size=5)):
            for cut in (bisect_left, bisect_right):
                assert cut(items, probe, key=ts_of) == cut(want, probe, key=ts_of)
        assert getattr(lazy, field) is items  # bisecting reads by index
        whole = slice(*data.draw(st.tuples(*[st.none() | st.integers(-300, 300)] * 2, st.none() | st.sampled_from([-3, -1, 1, 2]))))
        if data.draw(st.booleans()):
            assert list(items) == list(want)
        else:
            assert items[whole] == want[whole]
        # a whole read hands the finished tuple to the trace
        assert getattr(lazy, field) == want and type(getattr(lazy, field)) is tuple
        assert items[whole] == want[whole] and list(items) == list(want)


@settings(max_examples=40, deadline=None)
@given(plan=day_plans())
def test_a_lazy_day_equals_and_hashes_as_the_eager_one(plan):
    eager = eager_day(plan)
    lazy, _ = sim.synth_plan_day(plan)
    assert lazy == eager and eager == lazy
    other, _ = sim.synth_plan_day(plan)
    assert hash(other) == hash(eager)
    assert all(type(getattr(day, field)) is tuple for day in (lazy, other) for field in FIELDS)
    assert lazy == eager and hash(lazy) == hash(other) == hash(eager)
    a, _ = sim.synth_plan_day(plan)
    b, _ = sim.synth_plan_day(plan)
    assert a.scans != eager.scans[:-1]  # a lazy sequence against a shorter tuple
    assert a == b and hash(a) == hash(eager)  # lazy accel against lazy accel


@settings(max_examples=40, deadline=None)
@given(plan=day_plans(), level=st.sampled_from([None, -90, -80, -70, -60]))
def test_filtering_a_lazy_day_equals_filtering_the_eager_one(plan, level):
    lazy, _ = sim.synth_plan_day(plan)
    kept = filter_trace(lazy, level)
    assert kept.accel is lazy.accel  # one sequence, held by two traces
    assert kept == filter_trace(eager_day(plan), level)
    assert type(kept.accel) is tuple and kept.accel is lazy.accel


@settings(max_examples=30, deadline=None)
@given(plan=day_plans(), level=st.sampled_from([None, -80, -70]))
def test_a_days_stamps_are_its_items_stamps(plan, level):
    """On a lazy day, where reading the stamps renders nothing, and on days
    built whole, filtered, sliced from records, parsed and FSM-sensed."""
    lazy, _ = sim.synth_plan_day(plan)
    with mock.patch.object(sim.DayOracle, "aps_at", side_effect=AssertionError("a scan was rendered")):
        with mock.patch.object(sim.DayOracle, "accel_at", side_effect=AssertionError("a sample was rendered")):
            assert (lazy.scan_ts, lazy.accel_ts) == (lazy.scans.instants, lazy.accel.instants)
    eager = eager_day(plan)
    records = parse_trace_file(serialize_scan_records(eager.scans))
    samples = parse_accel_file(serialize_accel_samples(eager.accel))
    days = [
        lazy,
        eager,
        filter_trace(sim.synth_plan_day(plan)[0], level),
        filter_trace(eager, level),
        *slice_into_days(eager.scans, eager.accel),
        *slice_into_days(records, samples),
        run_fsm_day(sim.DayOracle(plan))[0],
    ]
    for day in days:
        assert day.scan_ts == [s.ts for s in day.scans] and day.accel_ts == [a.ts for a in day.accel]


@settings(max_examples=15, deadline=None)
@given(
    preset=st.sampled_from(sorted(sim.SCENARIO_PRESETS)),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from(sorted(NOISE_VARIANTS)),
    n_days=st.integers(2, 4),
)
def test_a_dataset_interns_each_observation_once(preset, seed, noise, n_days):
    """Equal observations on any days of one dataset are one object, two
    datasets share none, and each day equals the day rendered alone."""
    scenario = sim.SCENARIO_PRESETS[preset](n_days=n_days)
    scenario = replace(scenario, noise=NOISE_VARIANTS[noise](scenario.noise))
    if scenario.move_day is not None:
        scenario = replace(scenario, move_day=1)
    traces, _ = sim.synth_dataset(scenario, seed)
    again, _ = sim.synth_dataset(scenario, seed)
    first: dict[ApObservation, ApObservation] = {}
    for trace in traces:
        for o in (o for s in trace.scans for o in s.aps):
            assert first.setdefault(o, o) is o
    assert first and not {id(o) for o in first} & {id(o) for t in again for s in t.scans for o in s.aps}
    assert traces == again
    for i, trace in enumerate(traces):
        assert trace == sim.synth_plan_day(sim.make_day_plan(scenario, i, seed))[0]


@contextlib.contextmanager
def oracle_reads():
    """Spies on DayOracle's scan, presence and accelerometer reads; yields
    a function giving one of them's call count per day."""
    with contextlib.ExitStack() as stack:
        spies = {
            name: stack.enter_context(
                mock.patch.object(sim.DayOracle, name, autospec=True, side_effect=getattr(sim.DayOracle, name))
            )
            for name in ("aps_at", "accel_at", "bssids_at")
        }
        yield lambda name: Counter(call.args[0].plan.day_id for call in spies[name].call_args_list)


def night_range(trace) -> range:
    """The indices of the day's night scans."""
    start, stamps = day_slice_start(trace.day_id), trace.scan_ts
    return range(bisect_left(stamps, start + NIGHT_OPEN_S), bisect_left(stamps, start + NIGHT_CLOSE_S))


@pytest.mark.parametrize(
    "period, nights", [(600, range(2, 100)), (8 * 3600, {1}), (DAY_S, {0})], ids=["many", "one", "none"]
)
@pytest.mark.parametrize("seed", [0, 1000, 1049])
def test_voting_renders_no_scan(seed, period, nights):
    """Voting bisects the stamps, credits each night scan from them and reads
    only which BSSIDs it lists, so a day with n night scans renders no scan
    and no accelerometer sample, and makes max(n - 1, 0) presence reads."""
    scenario = replace(sim.mining_scenario(n_days=14), night_dwell=sim.NightDwellSpec(scan_period_s=period))
    with oracle_reads() as reads:
        traces, _ = sim.synth_dataset(scenario, seed)
        assert not (reads("aps_at") or reads("accel_at") or reads("bssids_at"))  # planning a day reads nothing
        votes = [day_vote(trace) for trace in traces]
    assert not (reads("aps_at") or reads("accel_at"))
    for trace in traces:
        assert len(night_range(trace)) in nights
        assert reads("bssids_at")[trace.day_id] == max(len(night_range(trace)) - 1, 0)
    assert votes == [day_vote(eager_day(sim.make_day_plan(scenario, i, seed))) for i in range(14)]


# the presets' noise variants, and one where every droppable source drops
PRESENCE_NOISE = {**NOISE_VARIANTS, "all-drop": lambda n: replace(n, dropout_prob=1.0)}


def assert_presence_is_the_render(oracle):
    """At every scan instant, and every second from the departure to past
    the door: the arrival, the door dip, the spike and the protected home."""
    for ts in sorted({*oracle.scan_instants(), *range(oracle.depart_ts - 60, oracle.door_ts + 61)}):
        assert oracle.bssids_at(ts) == {o.bssid for o in oracle.aps_at(ts)}, ts


@settings(max_examples=60, deadline=None)
@given(
    preset=st.sampled_from(sorted(sim.SCENARIO_PRESETS)),
    seed=st.integers(0, 2**32 - 1),
    day=st.integers(0, 40),
    noise=st.sampled_from(sorted(PRESENCE_NOISE)),
)
def test_the_presence_read_lists_what_the_render_lists(preset, seed, day, noise):
    plan = sim.make_day_plan(sim.SCENARIO_PRESETS[preset](), day, seed)
    assert_presence_is_the_render(sim.DayOracle(replace(plan, noise=PRESENCE_NOISE[noise](plan.noise))))


@pytest.mark.parametrize("noise", [sim.NoiseParams(), sim.NoiseParams(rssi_sigma_db=2.0, dropout_prob=0.5)])
@pytest.mark.parametrize("seed", [0, 7])
def test_a_home_that_is_a_night_neighbor_is_credited_once(noise, seed):
    """One BSSID from two sources (the home and a neighbor) is listed once,
    kept when either source survives its dropout, and credited once."""
    route = sim.make_chain_route(ap_count=4, duration_s=240, coverage_s=80)
    route = replace(route, home_bssid=sim.bssid_from_int(0x2000_00))  # the first night neighbor's
    scenario = sim.ScenarioSpec(route, 3, sim.ModeMix(((sim.WALK, 1.0),)), noise=noise)
    for i in range(scenario.n_days):
        plan = sim.make_day_plan(scenario, i, seed)
        assert_presence_is_the_render(sim.DayOracle(plan))
        lazy, _ = sim.synth_plan_day(plan)
        dwell = nightly_dwell(lazy)
        assert dwell == nightly_dwell(eager_day(plan))
        if not noise.dropout_prob:  # the home is in range all night: every credit, once
            stamps = lazy.scan_ts[night_range(lazy).start : night_range(lazy).stop]
            credits = [min(b - a, GAP_CAP_S) for a, b in zip(stamps, stamps[1:])]
            assert credits and dwell[route.home_bssid] == sum(credits)


@settings(max_examples=40, deadline=None)
@given(plan=day_plans(), data=st.data())
def test_a_half_rendered_day_votes_as_its_eager_twin(plan, data):
    """Night scans read through ``seq[i]`` first are voted from the scan
    itself; the vote reads the presence of the others and renders none."""
    with oracle_reads() as reads:
        lazy, _ = sim.synth_plan_day(plan)
        night = night_range(lazy)
        read = set(data.draw(st.lists(st.sampled_from(night), max_size=8))) if night else set()
        for i in read:
            lazy.scans[i]
        dwell = nightly_dwell(lazy)
    assert reads("aps_at")[plan.day_id] == len(read) and not reads("accel_at")
    assert reads("bssids_at")[plan.day_id] == len(set(night[:-1]) - read)
    eager = eager_day(plan)
    assert dwell == nightly_dwell(eager) and day_vote(lazy) == day_vote(eager)
    assert type(lazy.scans) is RenderedOnRead  # voting rendered nothing whole


def test_threads_racing_on_one_lazy_day_read_the_eager_items():
    plan = sim.make_day_plan(sim.simple_walk_scenario(), 3, 7)
    want = eager_day(plan)
    for _ in range(5):
        lazy, _ = sim.synth_plan_day(plan)
        errors = []

        def reader(k):
            try:
                for field in FIELDS:
                    items, expected = getattr(lazy, field), getattr(want, field)
                    order = list(range(len(expected)))
                    random.Random(k).shuffle(order)
                    for n, i in enumerate(order):
                        assert items[i] == expected[i]
                        if n == len(order) // 2 and k % 2:
                            assert tuple(items) == expected
                assert lazy == want and hash(lazy) == hash(want)
            except Exception as exc:  # reported below, from the test's own thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert type(lazy.scans) is tuple and type(lazy.accel) is tuple
