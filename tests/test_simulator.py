import math
import random
from dataclasses import replace
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloc import simulator as sim
from timeloc.errors import ConfigurationError
from timeloc.home_mining import NIGHT_CLOSE_S, NIGHT_OPEN_S
from timeloc.trace_model import DAY_S, NOON_SOD, ApObservation, Bssid, GpsFix, serialize_scan_records
from util import commute_day


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
        home_enter = depart + (route.route_duration_s - 40)
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
            if p.bssid == route.home_bssid:
                continue
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
        route = sim.make_chain_route()
        with pytest.raises(ConfigurationError, match="route has no home AP placement"):
            sim.RouteSpec(
                aps=tuple(p for p in route.aps if p.bssid != route.home_bssid),
                home_bssid=route.home_bssid,
                home_fix=route.home_fix,
                route_duration_s=route.route_duration_s,
            )

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
        old, new = scenario.route.home_bssid, scenario.relocation.new_home_bssid
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


def test_the_readme_scenario_file_loads_as_the_mixture_preset(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "scenario.ini"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    assert sim.load_scenario(path) == sim.mixture_scenario()


def test_default_keys_are_keys_of_every_section(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[DEFAULT]\nn_days = 5\n\n[days]\n")
    assert sim.load_scenario(path).n_days == 5


def test_a_relocation_before_day_zero_is_refused():
    new_home = sim.bssid_from_int(0x1F_FF01)
    assert sim.Relocation(0, new_home).move_day == 0
    with pytest.raises(ConfigurationError, match="move_day must be >= 0"):
        sim.Relocation(-1, new_home)
    with pytest.raises(ConfigurationError, match="move_day must be >= 0"):
        sim.relocation_scenario(move_day=-3, n_days=4)


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
    home_pl = route.home_placement()
    start = plan.slice_start
    md = start + (plan.night.morning_depart_sod - NOON_SOD) % DAY_S
    routes = []
    depart = plan.depart_ts
    home = (
        depart + round(home_pl.enter_offset_s / f) + plan.detour_s,
        md + round((duration - home_pl.enter_offset_s) / f),
    )
    for p in route.aps:
        if p.bssid == route.home_bssid:
            continue
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
        level = float(oracle.plan.route.home_placement().peak_rssi_dbm)
        if oracle.door_ts <= ts < oracle.door_ts + 10:
            level -= 8.0
        observe(oracle.home_bssid, level, not oracle._protected(oracle.home_bssid, ts))
    for bssid, begin, end in neighbors:
        if begin <= ts < end:
            observe(bssid, -65.0, True)
    if oracle.door_ts <= ts < oracle.door_ts + sim.SCAN_PERIOD_S:
        for bssid in spikes:
            observe(bssid, -67.0, False)
    return tuple(ApObservation(b, r) for b, r in sorted(obs.items()))


NOISE_VARIANTS = {
    "preset": lambda n: n,
    "no-sigma": lambda n: replace(n, rssi_sigma_db=0.0),
    "no-dropout": lambda n: replace(n, dropout_prob=0.0),
    "noiseless": lambda n: sim.NoiseParams(),
}


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
    md = plan.slice_start + (plan.night.morning_depart_sod - NOON_SOD) % DAY_S
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


def test_an_oracle_builds_each_observation_once():
    oracle = sim.DayOracle(sim.make_day_plan(sim.mining_scenario(), 0, 1000))
    observed = [o for ts in oracle.scan_instants() for o in oracle.aps_at(ts)]
    assert len({id(o) for o in observed}) == len(set(observed)) < len(observed)


@given(base=st.integers(0, 2**70), i=st.integers(0, 8))
def test_draw_is_the_keyed_unit(base, i):
    assert sim._draw(base + i * sim._GOLD) == _unit(base, i)
