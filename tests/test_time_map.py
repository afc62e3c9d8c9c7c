import random
from datetime import timedelta

import pytest

from timeloc import simulator as sim
from timeloc.errors import ColdStart, NoArrival, OrderingError, UnknownBssid
from timeloc.time_map import (
    ApLabel,
    DayMap,
    UserProfile,
    build_day_map,
    build_profile_from_maps,
    empty_profile,
    homeward_leg,
    predict_tl,
    profile_from_json,
    profile_to_json,
    update_profile,
)
from util import B, DAY, SLICE, bss, scan, trace

HOME = B("aa:00:00:00:00:ff")


def commute_trace(ap_windows, home_detect_offset, period=5, day=DAY, tail=60):
    """Scans every ``period`` seconds; AP visible in [enter, last] inclusive."""
    end = home_detect_offset + tail
    scans = []
    for off in range(0, end + 1, period):
        aps = {b: -50 for b, (enter, last) in ap_windows.items() if enter <= off <= last}
        if off >= home_detect_offset:
            aps[HOME] = -45
        scans.append(scan(SLICE + off, aps))
    return trace(scans, day=day)


class TestHomewardLeg:
    def test_leg_ends_at_first_home_sighting(self):
        t = commute_trace({bss(1): (0, 100)}, home_detect_offset=200)
        leg, detect_ts = homeward_leg(t, HOME)
        assert detect_ts == SLICE + 200
        assert leg[-1].ts == detect_ts
        assert leg[0].ts == SLICE

    def test_no_home_raises(self):
        t = commute_trace({bss(1): (0, 100)}, home_detect_offset=200)
        with pytest.raises(NoArrival):
            homeward_leg(t, B("aa:00:00:00:00:aa"))

    def test_single_missed_scan_is_not_a_departure(self):
        # home present throughout except one dropped scan; anchor stays put
        scans = []
        for off in range(0, 3000, 5):
            aps = {} if off < 1000 else {HOME: -45}
            if off == 2000:
                aps = {}  # dropout
            scans.append(scan(SLICE + off, aps))
        leg, detect_ts = homeward_leg(trace(scans), HOME)
        assert detect_ts == SLICE + 1000

    def test_morning_sightings_are_excluded(self):
        # evening approach, continuous home presence overnight, then route
        # APs again next morning
        scans = []
        for off in range(0, 300, 5):
            scans.append(scan(SLICE + off, {bss(1): -55}))
        for off in range(300, 400, 5):
            scans.append(scan(SLICE + off, {HOME: -45}))
        for off in range(900, 70_000, 600):  # evening + night presence
            scans.append(scan(SLICE + off, {HOME: -45}))
        for off in range(80_000, 80_300, 5):  # morning route sightings
            scans.append(scan(SLICE + off, {bss(1): -55}))
        leg, detect_ts = homeward_leg(trace(scans), HOME)
        assert detect_ts == SLICE + 300
        assert all(s.ts <= detect_ts for s in leg)


class TestBuildDayMap:
    def test_label_formula(self):
        # AP first seen at 200, last sighted 295 (loss observed at 300),
        # home detected at 1000 -> tdr 100, tl 700
        t = commute_trace({bss(1): (200, 295)}, home_detect_offset=1000)
        label = build_day_map(t, HOME).entries[bss(1)]
        assert label.tdr_seconds == 100
        assert label.tl_seconds == 700

    def test_home_ap_has_zero_tl(self):
        t = commute_trace({bss(1): (0, 100)}, home_detect_offset=200)
        dm = build_day_map(t, HOME)
        assert dm.entries[HOME] == ApLabel(0, 0)

    def test_ap_outliving_home_detection_clamps(self):
        # AP still visible in the home-detection scan
        t = commute_trace({bss(1): (100, 260)}, home_detect_offset=200)
        label = build_day_map(t, HOME).entries[bss(1)]
        assert label.tl_seconds == 0
        assert label.tdr_seconds == 100  # runs to the detection instant

    def test_signature_is_median_route_tdr(self):
        t = commute_trace(
            {bss(1): (0, 45), bss(2): (50, 145), bss(3): (150, 295)},
            home_detect_offset=400,
        )
        dm = build_day_map(t, HOME)
        # tdrs 50, 100, 150 for the three route APs
        assert dm.signature_s == 100.0

    def test_conservation_on_noiseless_synthetic_day(self):
        route = sim.make_chain_route()
        t, truth = sim.synth_day(route, sim.WALK, sim.NoiseParams(), seed=5)
        dm = build_day_map(t, route.home_bssid)
        leg, detect_ts = homeward_leg(t, route.home_bssid)
        assert detect_ts == truth.arrival_ts
        for b, lab in dm.entries.items():
            if lab.tl_seconds > 0:
                lost_ts = detect_ts - lab.tl_seconds
                # losing the AP tl seconds before arrival partitions the leg
                assert lost_ts + lab.tl_seconds == truth.arrival_ts


def _window_maps(n=7, bssid=bss(1), tl=340, tdr=60):
    maps = []
    for i in range(n):
        day = DAY + timedelta(days=i)
        entries = {HOME: ApLabel(0, 0)}
        if i == 0:
            entries[bssid] = ApLabel(tl, tdr)
        maps.append(DayMap(day_id=day, entries=entries, signature_s=float(tdr)))
    return maps


class TestUpdateProfile:
    def test_append_and_evict_to_fallback(self):
        maps = _window_maps(8)
        profile = build_profile_from_maps(HOME, maps[:7])
        assert len(profile.window) == 7
        updated = update_profile(profile, maps[7], ())
        assert len(updated.window) == 7
        assert updated.window[0].day_id == maps[1].day_id
        # day 0's unique BSSID now lives in the fallback
        assert bss(1) in updated.fallback

    def test_newer_eviction_overwrites_fallback(self):
        days = [DAY + timedelta(days=i) for i in range(9)]
        maps = [
            DayMap(d, {HOME: ApLabel(0, 0), bss(1): ApLabel(100 + i, 50)}, 50.0)
            for i, d in enumerate(days)
        ]
        profile = build_profile_from_maps(HOME, maps[:7])
        profile = update_profile(profile, maps[7], ())
        assert profile.fallback[bss(1)].tl_seconds == 100
        profile = update_profile(profile, maps[8], ())
        assert profile.fallback[bss(1)].tl_seconds == 101  # newer label wins

    def test_out_of_order_day_rejected(self):
        maps = _window_maps(2)
        profile = build_profile_from_maps(HOME, maps)
        with pytest.raises(OrderingError):
            update_profile(profile, maps[0], ())

    def test_relocation_flips_home_by_third_followup_day(self):
        move_day = 10
        scenario = sim.relocation_scenario(move_day=move_day, n_days=15)
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
        assert flips_at is not None and flips_at <= move_day + 3
        # and not before the new home holds the window majority
        assert flips_at == move_day + 3

    def test_window_content_is_a_function_of_the_last_seven_days(self):
        maps = _window_maps(9)
        a = build_profile_from_maps(HOME, maps)
        b = build_profile_from_maps(HOME, maps[2:])
        assert a.window == b.window
        # the longer history differs only in what was evicted into fallback
        assert set(a.fallback) >= set(b.fallback)

    def test_insertion_order_does_not_matter(self):
        maps = _window_maps(7)
        rng = random.Random(5)
        shuffled = maps[:]
        rng.shuffle(shuffled)
        assert build_profile_from_maps(HOME, shuffled) == build_profile_from_maps(HOME, maps)


class TestPredict:
    def test_single_day_label_is_returned(self):
        profile = build_profile_from_maps(HOME, _window_maps(7, tl=340, tdr=60))
        p = predict_tl(profile, bss(1), 55)
        assert p.tl_seconds == 340
        assert p.lookups == 2
        assert p.matched_bssid == bss(1)

    def test_nearest_tdr_wins(self):
        days = [DAY + timedelta(days=i) for i in range(7)]
        entries_by_day = {
            days[0]: {HOME: ApLabel(0, 0), bss(1): ApLabel(500, 100)},
            days[1]: {HOME: ApLabel(0, 0), bss(1): ApLabel(700, 200)},
        }
        maps = [
            DayMap(d, entries_by_day.get(d, {HOME: ApLabel(0, 0)}), 0.0) for d in days
        ]
        profile = build_profile_from_maps(HOME, maps)
        assert predict_tl(profile, bss(1), 110).tl_seconds == 500
        assert predict_tl(profile, bss(1), 190).tl_seconds == 700

    def test_tie_prefers_most_recent_day(self):
        days = [DAY + timedelta(days=i) for i in range(7)]
        maps = []
        for i, d in enumerate(days):
            entries = {HOME: ApLabel(0, 0), bss(1): ApLabel(100 + i, 100)}
            maps.append(DayMap(d, entries, 100.0))
        profile = build_profile_from_maps(HOME, maps)
        # every day ties on |tdr - observed|; the newest label wins
        assert predict_tl(profile, bss(1), 100).tl_seconds == 106

    def test_fallback_path(self):
        maps = _window_maps(7)
        profile = build_profile_from_maps(HOME, maps)
        profile = UserProfile(
            home_bssid=profile.home_bssid,
            window=profile.window,
            fallback={bss(9): ApLabel(123, 40)},
            built_at=profile.built_at,
        )
        p = predict_tl(profile, bss(9), 35)
        assert p.tl_seconds == 123
        assert p.source == "fallback"

    def test_unknown_bssid(self):
        profile = build_profile_from_maps(HOME, _window_maps(7))
        with pytest.raises(UnknownBssid):
            predict_tl(profile, B("aa:00:00:00:00:77"), 10)

    def test_cold_start_under_seven_days(self):
        profile = build_profile_from_maps(HOME, _window_maps(6))
        with pytest.raises(ColdStart):
            predict_tl(profile, bss(1), 60)

    def test_negative_tdr_rejected(self):
        profile = build_profile_from_maps(HOME, _window_maps(7))
        with pytest.raises(ValueError):
            predict_tl(profile, bss(1), -1)

    def test_constant_probe_count_regardless_of_history(self):
        for n in (7, 30):
            maps = _window_maps(n)
            profile = build_profile_from_maps(HOME, maps)
            assert predict_tl(profile, HOME, 0).lookups == 2


def test_profile_json_round_trip(tmp_path):
    from timeloc.time_map import load_profile, save_profile

    profile = build_profile_from_maps(HOME, _window_maps(8))
    save_profile(profile, tmp_path, "dev42")
    assert load_profile(tmp_path, "dev42") == profile
    # serialization is stable
    assert profile_to_json(profile_from_json(profile_to_json(profile))) == profile_to_json(profile)


class TestSaveProfileIsAtomic:
    def _saved(self, tmp_path):
        from timeloc.time_map import save_profile

        old = build_profile_from_maps(HOME, _window_maps(8))
        save_profile(old, tmp_path, "dev")
        new = build_profile_from_maps(HOME, _window_maps(9))
        assert new != old
        return old, new

    def test_failed_write_keeps_previous_profile(self, tmp_path, monkeypatch):
        import os

        from timeloc.time_map import load_profile, save_profile

        old, new = self._saved(tmp_path)

        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_profile(new, tmp_path, "dev")
        assert load_profile(tmp_path, "dev") == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.profile.json"]

    def test_failed_serialization_keeps_previous_profile(self, tmp_path, monkeypatch):
        from timeloc import time_map
        from timeloc.time_map import load_profile, save_profile

        old, new = self._saved(tmp_path)

        def broken(profile):
            raise RuntimeError("serializer crashed")

        monkeypatch.setattr(time_map, "profile_to_json", broken)
        with pytest.raises(RuntimeError):
            save_profile(new, tmp_path, "dev")
        assert load_profile(tmp_path, "dev") == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.profile.json"]

    def test_successful_write_replaces(self, tmp_path):
        from timeloc.time_map import load_profile, save_profile

        _, new = self._saved(tmp_path)
        save_profile(new, tmp_path, "dev")
        assert load_profile(tmp_path, "dev") == new
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.profile.json"]
