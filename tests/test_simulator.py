import math
from dataclasses import replace
from datetime import date

import pytest

from timeloc import simulator as sim
from timeloc.errors import ConfigurationError
from timeloc.trace_model import Bssid, serialize_scan_records


def noiseless_day(route, mode=sim.WALK, seed=0, **kw):
    return sim.synth_day(route, mode, sim.NoiseParams(), seed=seed, **kw)


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
        a, _ = sim.synth_day(route, sim.WALK, noise, seed=33)
        b, _ = sim.synth_day(route, sim.WALK, noise, seed=33)
        assert serialize_scan_records(a.scans) == serialize_scan_records(b.scans)

    def test_route_without_home_is_a_configuration_error(self):
        route = sim.make_chain_route()
        no_home = sim.RouteSpec(
            aps=tuple(p for p in route.aps if p.bssid != route.home_bssid),
            home_bssid=route.home_bssid,
            home_fix=route.home_fix,
            route_duration_s=route.route_duration_s,
        )
        with pytest.raises(ConfigurationError):
            sim.synth_day(no_home, sim.WALK, sim.NoiseParams(), seed=0)

    def test_door_event_timing_invariant(self):
        route = sim.make_chain_route()
        _, truth = sim.synth_day(route, sim.WALK, sim.NoiseParams(), seed=4)
        assert truth.arrival_ts - 60 <= truth.door_ts <= truth.arrival_ts + 120

    def test_dropout_never_hides_home_at_arrival(self):
        route = sim.make_chain_route()
        noise = sim.NoiseParams(rssi_sigma_db=4.0, dropout_prob=0.9)
        trace, truth = sim.synth_day(route, sim.WALK, noise, seed=6)
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


def test_resolve_scenario_preset_and_unknown():
    assert sim.resolve_scenario("simple").n_days == 24
    assert sim.resolve_scenario("simple", n_days=9).n_days == 9
    with pytest.raises(ConfigurationError):
        sim.resolve_scenario("nonsense-preset")
