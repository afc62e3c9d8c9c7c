import argparse
import contextlib
import json
import math
import os
import random
import tempfile
from bisect import bisect_right
from dataclasses import replace
from datetime import timedelta
from pathlib import Path
from statistics import median

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeloc import cli
from timeloc import simulator as sim
from timeloc.cli import _load_days
from timeloc.eval_harness import QueryPoint, ap_loss_queries
from timeloc.errors import (
    ColdStart,
    NoNightData,
    OrderingError,
    ProfileFormatError,
    TimelocError,
    TraceValidationError,
    UnknownBssid,
)
from timeloc.home_mining import day_vote, vote_home_ap, window_homes
from timeloc.nn_baseline import leg_history
from timeloc.time_map import (
    HOME_AWAY_MIN_S,
    SCAN_PERIOD_S,
    WINDOW_DAYS,
    ApLabel,
    DayMap,
    UserProfile,
    build_day_map,
    build_profile_from_maps,
    empty_profile,
    leg_losses,
    load_profile,
    predict_tl,
    profile_from_json,
    profile_to_json,
    update_profile,
)
from timeloc.trace_model import day_slice_start, serialize_scan_records
from util import OTHER_ISO_DATES, B, DAY, SLICE, bss, commute_day, scan, trace

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
        leg, detect_ts = leg_losses(t, HOME)[:2]
        assert detect_ts == SLICE + 200
        assert leg[-1].ts == detect_ts
        assert leg[0].ts == SLICE

    def test_no_home_gives_the_empty_leg(self):
        t = commute_trace({bss(1): (0, 100)}, home_detect_offset=200)
        assert leg_losses(t, B("aa:00:00:00:00:aa")) == ((), None, {})

    def test_single_missed_scan_is_not_a_departure(self):
        # home present throughout except one dropped scan; anchor stays put
        scans = []
        for off in range(0, 3000, 5):
            aps = {} if off < 1000 else {HOME: -45}
            if off == 2000:
                aps = {}  # dropout
            scans.append(scan(SLICE + off, aps))
        leg, detect_ts = leg_losses(trace(scans), HOME)[:2]
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
        leg, detect_ts = leg_losses(trace(scans), HOME)[:2]
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
        t, truth = commute_day(route, sim.WALK, sim.NoiseParams(), seed=5)
        dm = build_day_map(t, route.home_bssid)
        leg, detect_ts = leg_losses(t, route.home_bssid)[:2]
        assert detect_ts == truth.arrival_ts
        for b, lab in dm.entries.items():
            if lab.tl_seconds > 0:
                lost_ts = detect_ts - lab.tl_seconds
                # losing the AP tl seconds before arrival partitions the leg
                assert lost_ts + lab.tl_seconds == truth.arrival_ts


# ---------------------------------------------------------------------------
# reference: the loss rule as build_day_map and ap_loss_queries each stated
# it before leg_losses, copied verbatim from those bodies.


def reference_leg_sightings(trace, home):
    leg, home_ts = leg_losses(trace, home)[:2]
    first_seen = {}
    last_seen = {}
    for s in leg:
        for o in s.aps:
            first_seen.setdefault(o.bssid, s.ts)
            last_seen[o.bssid] = s.ts
    return leg, home_ts, first_seen, last_seen


def reference_build_day_map(trace, home):
    leg, home_ts, first_seen, last_seen = reference_leg_sightings(trace, home)
    final_bssids = {o.bssid for o in leg[-1].aps}

    entries = {}
    for b, first in first_seen.items():
        if b in final_bssids:
            lost = home_ts
        else:
            lost = min(last_seen[b] + SCAN_PERIOD_S, home_ts)
        entries[b] = ApLabel(tl_seconds=home_ts - lost, tdr_seconds=lost - first)

    route_tdrs = [lab.tdr_seconds for lab in entries.values() if lab.tl_seconds > 0]
    signature = float(median(route_tdrs)) if route_tdrs else 0.0
    return DayMap(day_id=trace.day_id, entries=entries, signature_s=signature)


def reference_ap_loss_queries(trace, home, arrival_ts):
    leg, home_ts, first_seen, last_seen = reference_leg_sightings(trace, home)
    if not leg:
        return []
    leg_ts = [s.ts for s in leg]
    final_bssids = {o.bssid for o in leg[-1].aps}

    queries = []
    for b, first in first_seen.items():
        if b == home or b in final_bssids:
            continue
        lost = last_seen[b] + SCAN_PERIOD_S
        if lost > home_ts:
            continue
        idx = bisect_right(leg_ts, last_seen[b])
        if idx >= len(leg):
            continue
        scan = leg[idx]
        if scan.ts >= arrival_ts:
            continue
        queries.append(
            QueryPoint(
                day_id=trace.day_id,
                query_ts=scan.ts,
                bssid=b,
                observed_tdr_s=lost - first,
                scan=scan,
                actual_tl_s=arrival_ts - scan.ts,
            )
        )
    queries.sort(key=lambda q: (q.query_ts, q.bssid))
    return queries


# Gaps between scans: mostly repeated timestamps and gaps around the scan
# period, sometimes a home absence just under, at or over HOME_AWAY_MIN_S.
_LEG_GAPS = st.sampled_from(
    tuple(range(2 * SCAN_PERIOD_S + 2)) * 3
    + (HOME_AWAY_MIN_S - 1, HOME_AWAY_MIN_S, HOME_AWAY_MIN_S + 1)
)
_ROUTE_APS = (bss(1), bss(2), bss(3), bss(4))


@st.composite
def leg_days(draw):
    """A day trace with an arrival instant near its scans.

    Each route AP is visible over one run of consecutive scans.  Home is
    visible in the last few scans, missing some, and in a few earlier ones,
    so it may be seen several times, with absences on both sides of
    HOME_AWAY_MIN_S; on some days it is never seen.
    """
    # At most 20 gaps of at most HOME_AWAY_MIN_S + 1 stay inside the slice.
    gaps = draw(st.lists(_LEG_GAPS, min_size=6, max_size=20))
    offset = draw(st.integers(0, 3600))
    stamps = [SLICE + offset + sum(gaps[: i + 1]) for i in range(len(gaps))]
    n = len(stamps)
    index = st.integers(0, n - 1)
    runs = {b: sorted(draw(st.tuples(index, index))) for b in _ROUTE_APS}
    home = set()
    if draw(st.integers(0, 5)):
        home_from = n - draw(st.integers(1, min(n - 1, 8)))
        home = set(range(home_from, n)) - draw(st.sets(index, max_size=2))
        if home_from and draw(st.booleans()):
            home |= draw(st.sets(st.integers(0, home_from - 1), min_size=1, max_size=2))
    scans = []
    for i, ts in enumerate(stamps):
        aps = {b: -50 for b, (lo, hi) in runs.items() if lo <= i <= hi}
        if i in home:
            aps[HOME] = -45
        scans.append(scan(ts, aps))
    near_end = stamps[n - draw(st.integers(1, min(n, 10)))]
    arrival = near_end + draw(st.integers(-SCAN_PERIOD_S, SCAN_PERIOD_S))
    return trace(scans), arrival


# Home detected at 20 with the route AP last seen at 15, so its loss is
# observed exactly at detection: a query with tl 0.
_LOSS_AT_DETECTION = (
    trace([scan(SLICE, {bss(1): -50}), scan(SLICE + 15, {bss(1): -50}),
           scan(SLICE + 18, {}), scan(SLICE + 20, {HOME: -45})]),
    SLICE + 25,
)


class TestLegLossProperties:
    @settings(max_examples=300, deadline=None)
    @given(leg_days())
    @example(_LOSS_AT_DETECTION)
    def test_day_map_and_queries_match_the_sighting_rule(self, day):
        t, arrival = day
        expected = reference_build_day_map(t, HOME) if leg_losses(t, HOME)[0] else None
        assert build_day_map(t, HOME) == expected
        assert ap_loss_queries(t, HOME, arrival) == reference_ap_loss_queries(t, HOME, arrival)

    @settings(max_examples=300, deadline=None)
    @given(leg_days())
    @example(_LOSS_AT_DETECTION)
    def test_labels_partition_the_leg(self, day):
        t, _ = day
        leg, home_ts = leg_losses(t, HOME)[:2]
        if not leg:
            return
        dm = build_day_map(t, HOME)
        first = {}
        for s in leg:
            for o in s.aps:
                first.setdefault(o.bssid, s.ts)
        assert list(dm.entries) == list(first)
        for b, lab in dm.entries.items():
            assert first[b] + lab.tdr_seconds + lab.tl_seconds == home_ts
        for b in {o.bssid for o in leg[-1].aps}:
            assert dm.entries[b].tl_seconds == 0
        route_tdrs = [lab.tdr_seconds for lab in dm.entries.values() if lab.tl_seconds > 0]
        assert dm.signature_s == (median(route_tdrs) if route_tdrs else 0.0)

    @settings(max_examples=300, deadline=None)
    @given(leg_days())
    @example(_LOSS_AT_DETECTION)
    def test_each_query_follows_its_last_sighting(self, day):
        t, arrival = day
        queries = ap_loss_queries(t, HOME, arrival)
        if not queries:
            return
        leg, _, losses = leg_losses(t, HOME)
        dm = build_day_map(t, HOME)
        for q in queries:
            last = max(s.ts for s in leg if q.bssid in {o.bssid for o in s.aps})
            assert q.scan == next(s for s in leg if s.ts > last)
            assert q.query_ts == q.scan.ts < arrival
            assert q.actual_tl_s == arrival - q.scan.ts
            assert q.observed_tdr_s == dm.entries[q.bssid].tdr_seconds
            assert losses[q.bssid][1:] == (last, last + SCAN_PERIOD_S)

    @settings(max_examples=300, deadline=None)
    @given(leg_days())
    def test_a_day_without_its_home_has_an_empty_leg(self, day):
        """Home never seen: ``leg_losses`` is ``((), None, {})``, so the day
        has no map, no history point and no query.  Otherwise it has a map."""
        t, arrival = day
        if any(o.bssid == HOME for s in t.scans for o in s.aps):
            assert isinstance(build_day_map(t, HOME), DayMap)
            return
        assert leg_losses(t, HOME) == ((), None, {})
        assert build_day_map(t, HOME) is None
        assert leg_history(leg_losses(t, HOME)) == []
        assert ap_loss_queries(t, HOME, arrival) == []


def reference_walked_leg(trace, home):
    """The leg and home-detection instant of ``leg_losses`` as one walk over
    the scans, testing each for home; None when home is never seen."""
    scans = trace.scans
    detect_idx = None
    leg_start_idx = 0
    prev_sight = None
    for i, s in enumerate(scans):
        if any(o.bssid == home for o in s.aps):
            if prev_sight is None or s.ts - scans[prev_sight].ts >= HOME_AWAY_MIN_S:
                detect_idx = i
                leg_start_idx = 0 if prev_sight is None else prev_sight + 1
            prev_sight = i
    if detect_idx is None:
        return None
    return scans[leg_start_idx : detect_idx + 1], scans[detect_idx].ts


class TestHomewardLegProperties:
    @settings(max_examples=300, deadline=None)
    @given(leg_days())
    def test_matches_reference(self, day):
        t, _ = day
        expected = reference_walked_leg(t, HOME)
        if expected is None:
            assert leg_losses(t, HOME) == ((), None, {})
        else:
            assert leg_losses(t, HOME)[:2] == expected

    @settings(max_examples=300, deadline=None)
    @given(leg_days())
    def test_anchor_is_the_last_sighting_after_an_absence(self, day):
        """Home is in the leg's last scan only; the leg starts at the first
        scan or right after a sighting at least HOME_AWAY_MIN_S earlier; no
        later sighting follows such an absence.  The empty leg exactly when
        home is never seen."""
        t, _ = day
        scans = t.scans
        seen = [i for i, s in enumerate(scans) if HOME in {o.bssid for o in s.aps}]
        if not seen:
            assert leg_losses(t, HOME) == ((), None, {})
            return
        leg, home_ts = leg_losses(t, HOME)[:2]
        start = next(i for i, s in enumerate(scans) if s is leg[0])
        anchor = start + len(leg) - 1
        assert scans[start : anchor + 1] == leg
        assert anchor in seen and scans[anchor].ts == home_ts
        assert not any(HOME in {o.bssid for o in s.aps} for s in leg[:-1])
        if start:
            assert start - 1 in seen
            assert home_ts - scans[start - 1].ts >= HOME_AWAY_MIN_S
        later = [scans[i].ts for i in seen if i >= anchor]
        assert all(b - a < HOME_AWAY_MIN_S for a, b in zip(later, later[1:]))


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

    @pytest.mark.parametrize("window_days", [0, -1])
    def test_window_shorter_than_one_day_rejected(self, window_days):
        maps = _window_maps(2)
        profile = build_profile_from_maps(HOME, maps[:1])
        with pytest.raises(ValueError, match="window_days"):
            update_profile(profile, maps[1], (), window_days=window_days)

    def test_relocation_flips_home_by_third_followup_day(self):
        move_day = 10
        scenario = sim.relocation_scenario(move_day=move_day, n_days=15)
        traces, _ = sim.synth_dataset(scenario, seed=3)
        profile = empty_profile(scenario.route.home_bssid, traces[0].day_id)
        flips_at = None
        for i, t in enumerate(traces):
            window = traces[max(0, i - 6) : i + 1]
            profile = update_profile(profile, build_day_map(t, profile.home_bssid), window)
            if flips_at is None and profile.home_bssid == sim.NEW_HOME_BSSID:
                flips_at = i
        assert flips_at is not None and flips_at <= move_day + 3
        # and not before the new home holds the window majority
        assert flips_at == move_day + 3

    def test_a_stored_ballot_stands_for_its_days_trace(self, monkeypatch):
        from timeloc import time_map

        # every night sees only HOME, but two stored ballots say bss(2)
        days = [DAY + timedelta(days=i) for i in range(3)]
        nights = [
            trace([scan(day_slice_start(d) + 10 * 3600 + 600 * k, {HOME: -45}) for k in range(3)], day=d)
            for d in days
        ]
        held = {nights[0].day_id: bss(2), nights[1].day_id: bss(2)}
        profile = replace(empty_profile(HOME, nights[0].day_id), ballots=held)
        voted = []
        monkeypatch.setattr(time_map, "day_vote", lambda t: voted.append(t.day_id) or day_vote(t))
        updated = update_profile(profile, None, nights)
        assert voted == [nights[2].day_id]
        assert updated.home_bssid == bss(2)
        assert updated.ballots == {**held, nights[2].day_id: HOME}

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


# ---------------------------------------------------------------------------
# reference: update_profile as it was before the fold was split from the
# window vote, copied from that body; a day without its home gives no map.


def reference_update_profile(profile, new_day, all_window_traces, window_days=WINDOW_DAYS):
    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")
    window = list(profile.window)
    fallback = dict(profile.fallback)

    if new_day is not None:
        if window and new_day.day_id <= window[-1].day_id:
            raise OrderingError(
                f"day {new_day.day_id} not later than window tail {window[-1].day_id}"
            )
        window.append(new_day)
        while len(window) > window_days:
            evicted = window.pop(0)
            for b, lab in evicted.entries.items():
                fallback[b] = lab

    home = profile.home_bssid
    vote = None
    if all_window_traces:
        with contextlib.suppress(NoNightData):
            vote = vote_home_ap(all_window_traces)
    if vote is not None and vote.winner != home:
        home = vote.winner
        # Labels anchored to the old home are meaningless now: rebuild the
        # window from the traces and start the fallback over.
        rebuilt = []
        for t in sorted(all_window_traces, key=lambda t: t.day_id)[-window_days:]:
            day_map = build_day_map(t, home)
            if day_map is not None:
                rebuilt.append(day_map)
        window = rebuilt
        fallback = {}

    built_at = window[-1].day_id if window else (
        max(t.day_id for t in all_window_traces) if all_window_traces else profile.built_at
    )
    return UserProfile(
        home_bssid=home,
        window=tuple(window),
        fallback=fallback,
        built_at=built_at,
    )


OLD_HOME, NEW_HOME = B("aa:00:00:00:00:01"), B("aa:00:00:00:00:02")


@st.composite
def folded_days(draw):
    """Consecutive day traces of a user who moves from OLD_HOME to NEW_HOME.

    A day has a homeward leg past the route APs and, most days, an arrival
    at its home, which then stays visible until the night.  Its night scans,
    when it has any, see one AP: mostly the day's home, sometimes the other
    one.  So some days have no arrival, some no night data, and the window
    vote flips once the new home holds enough nights.
    """
    n = draw(st.integers(1, 14))
    move = draw(st.integers(0, n))
    days = []
    for i in range(n):
        day = DAY + timedelta(days=i)
        home, other = (OLD_HOME, NEW_HOME) if i < move else (NEW_HOME, OLD_HOME)
        start = day_slice_start(day) + 4 * 3600  # 16:00
        scans = [
            scan(start + 30 * k, {b: -50 for b in draw(st.sets(st.sampled_from(_ROUTE_APS)))})
            for k in range(draw(st.integers(1, 6)))
        ]
        if draw(st.integers(0, 4)):  # most days arrive home
            arrive = scans[-1].ts + 30
            scans += [scan(ts, {home: -45}) for ts in range(arrive, start + 5 * 3600, 1200)]
        night = draw(st.sampled_from([home, home, home, other, None]))
        if night is not None:
            count = draw(st.integers(1, 6))  # one night scan alone gives no dwell
            scans += [scan(start + 5 * 3600 + 1200 * k, {night: -45}) for k in range(count)]
        days.append(trace(scans, day=day))
    return days


@settings(max_examples=150, deadline=None)
@given(folded_days(), st.integers(1, 9), st.integers(0, 12), st.sampled_from([OLD_HOME, NEW_HOME]))
def test_update_profile_matches_reference(days, window_days, lookback, start_home):
    """Folding as build-profile does, with the window traces of the last
    ``lookback`` days (none when 0, so more or fewer than ``window_days``)."""
    profile = empty_profile(start_home, days[0].day_id)
    for i, t in enumerate(days):
        new_map = build_day_map(t, profile.home_bssid)
        window = days[max(0, i - lookback + 1) : i + 1] if lookback else ()
        expected = reference_update_profile(profile, new_map, window, window_days)
        assert update_profile(profile, new_map, window, window_days) == expected
        if new_map is not None and expected.window:
            with pytest.raises(OrderingError):
                update_profile(expected, expected.window[-1], window, window_days)
        profile = expected


@settings(max_examples=150, deadline=None)
@given(folded_days(), st.integers(1, 9), st.integers(0, 12), st.sampled_from([OLD_HOME, NEW_HOME]))
def test_stored_ballots_survive_the_document(days, window_days, lookback, start_home):
    """The phone's evening: fold, then write the document and read it back.
    Each stored ballot is ``day_vote`` of its trace, and the profile is the
    reference's, which votes every trace and stores no ballot."""
    profile = expected = empty_profile(start_home, days[0].day_id)
    for i, t in enumerate(days):
        window = days[max(0, i - lookback + 1) : i + 1] if lookback else ()
        expected = reference_update_profile(
            expected, build_day_map(t, expected.home_bssid), window, window_days
        )
        profile = update_profile(profile, build_day_map(t, profile.home_bssid), window, window_days)
        profile = profile_from_json(profile_to_json(profile))
        assert profile.ballots == {w.day_id: day_vote(w) for w in window}
        assert profile == expected and not expected.ballots


# reference: build-profile as it was before it folded through
# update_profile, copied from that loop and from the fold_day it called.


def reference_fold_day(profile, new_day, home, window_traces, window_days=WINDOW_DAYS):
    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")
    window = list(profile.window)
    fallback = dict(profile.fallback)

    if new_day is not None:
        if window and new_day.day_id <= window[-1].day_id:
            raise OrderingError(
                f"day {new_day.day_id} not later than window tail {window[-1].day_id}"
            )
        window.append(new_day)
        while len(window) > window_days:
            evicted = window.pop(0)
            for b, lab in evicted.entries.items():
                fallback[b] = lab

    if home != profile.home_bssid:
        # Labels anchored to the old home are meaningless now: rebuild the
        # window from the traces and start the fallback over.
        recent = sorted(window_traces, key=lambda t: t.day_id)[-window_days:]
        maps = (build_day_map(t, home) for t in recent)
        window = [m for m in maps if m is not None]
        fallback = {}

    built_at = window[-1].day_id if window else (
        max(t.day_id for t in window_traces) if window_traces else profile.built_at
    )
    return UserProfile(
        home_bssid=home,
        window=tuple(window),
        fallback=fallback,
        built_at=built_at,
    )


def reference_build_profile(days, window_days):
    votes = [day_vote(d) for d in days]
    homes = window_homes(votes, window_days)
    # Start from the first full window that votes.  Some day votes, and it
    # lies in the first full window or ends a later one, so one does.
    home = next(h for h in homes[min(window_days, len(days)) - 1 :] if h is not None)
    profile = empty_profile(home, days[0].day_id)
    for i, (day, voted) in enumerate(zip(days, homes)):
        new_map = build_day_map(day, profile.home_bssid)
        home = voted or profile.home_bssid  # a window without nightly data keeps the home
        window_traces = days[max(0, i - window_days + 1) : i + 1]
        profile = reference_fold_day(profile, new_map, home, window_traces, window_days)
    return profile


@settings(max_examples=150, deadline=None)
@given(folded_days(), st.integers(1, 9))
def test_build_profile_from_the_first_ballot_matches_the_first_voting_window(days, window_days):
    """build-profile starts from the first ballot cast and folds with
    update_profile; the reference starts from the first full window that
    votes and folds under window_homes, keeping the home where a window has
    no votes.  Both write the same document, or both refuse a trace where
    no day votes.  Windows shorter than the CLI's 7-day minimum run too."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "trace.jsonl").write_bytes(serialize_scan_records(s for d in days for s in d.scans))
        days = _load_days(tmp)
        args = argparse.Namespace(traces=tmp, device="d", store=tmp, window_days=window_days)
        try:
            expected = reference_build_profile(days, window_days)
        except NoNightData:
            with pytest.raises(NoNightData):
                cli._cmd_build_profile(args)
            assert sorted(os.listdir(tmp)) == ["trace.jsonl"]
            return
        assert cli._cmd_build_profile(args) == 0
        assert load_profile(tmp, "d") == expected
        assert (Path(tmp) / "d.profile.json").read_text() == profile_to_json(expected) + "\n"


class TestPredict:
    def test_single_day_label_is_returned(self):
        profile = build_profile_from_maps(HOME, _window_maps(7, tl=340, tdr=60))
        p = predict_tl(profile, bss(1), 55)
        assert p.tl_seconds == 340
        assert p.lookups == 2

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


def reference_predict_tl(profile, bssid, observed_tdr_s):
    """``predict_tl`` as it stands: the reference its properties are checked against."""
    if observed_tdr_s < 0:
        raise ValueError("observed tdr must be >= 0")
    window = profile.window
    if not window:
        raise ColdStart("profile has no history yet")
    span_days = (window[-1].day_id - window[0].day_id).days + 1
    if span_days < WINDOW_DAYS:
        raise ColdStart(f"profile covers {span_days} day(s); need {WINDOW_DAYS}")
    best = None
    for dm in reversed(window):
        lab = dm.entries.get(bssid)
        if lab is None:
            continue
        dist = abs(lab.tdr_seconds - observed_tdr_s)
        if best is None or dist < best[0]:
            best = (dist, dm.day_id, lab)
    if best is not None:
        return best[2].tl_seconds, best[1].isoformat(), 2
    lab = profile.fallback.get(bssid)
    if lab is not None:
        return lab.tl_seconds, "fallback", 3
    raise UnknownBssid(str(bssid))


# A few BSSIDs and close tdr values, so days share labels and tie often,
# and day offsets that put the window span on both sides of a week.
_query_bssids = st.integers(0, 4).map(bss)
_close_labels = st.builds(ApLabel, st.integers(0, 1000), st.integers(0, 12))


@st.composite
def query_profiles(draw):
    offsets = sorted(draw(st.lists(st.integers(0, 12), unique=True, max_size=8)))
    window = tuple(
        DayMap(DAY + timedelta(days=off), draw(st.dictionaries(_query_bssids, _close_labels, max_size=4)), 0.0)
        for off in offsets
    )
    fallback = draw(st.dictionaries(_query_bssids, _close_labels, max_size=3))
    return UserProfile(HOME, window, fallback, DAY)


def _outcome(fn, *args):
    try:
        p = fn(*args)
    except (ColdStart, UnknownBssid) as exc:
        return type(exc)
    return p if isinstance(p, tuple) else (p.tl_seconds, p.source, p.lookups)


class TestPredictProperties:
    @settings(max_examples=400, deadline=None)
    @given(query_profiles(), _query_bssids, st.integers(0, 14))
    def test_matches_reference(self, profile, bssid, tdr):
        assert _outcome(predict_tl, profile, bssid, tdr) == _outcome(reference_predict_tl, profile, bssid, tdr)

    @settings(max_examples=400, deadline=None)
    @given(query_profiles(), _query_bssids, st.integers(0, 14))
    def test_which_answer(self, profile, bssid, tdr):
        """ColdStart exactly when the window is empty or spans under a week;
        else the nearest tdr in the window wins, ties to the most recent
        day, in 2 lookups; else the fallback in 3; else UnknownBssid."""
        window = profile.window
        if not window or (window[-1].day_id - window[0].day_id).days + 1 < WINDOW_DAYS:
            with pytest.raises(ColdStart):
                predict_tl(profile, bssid, tdr)
            return
        held = [dm for dm in window if bssid in dm.entries]
        if not held and bssid not in profile.fallback:
            with pytest.raises(UnknownBssid):
                predict_tl(profile, bssid, tdr)
            return
        p = predict_tl(profile, bssid, tdr)
        if held:
            nearest = min(abs(dm.entries[bssid].tdr_seconds - tdr) for dm in held)
            newest = max(dm.day_id for dm in held if abs(dm.entries[bssid].tdr_seconds - tdr) == nearest)
            won = next(dm for dm in held if dm.day_id == newest)
            assert (p.source, p.tl_seconds, p.lookups) == (newest.isoformat(), won.entries[bssid].tl_seconds, 2)
        else:
            assert (p.source, p.tl_seconds, p.lookups) == ("fallback", profile.fallback[bssid].tl_seconds, 3)


def test_profile_json_round_trip(tmp_path):
    from timeloc.time_map import load_profile, save_profile

    profile = build_profile_from_maps(HOME, _window_maps(8))
    save_profile(profile, tmp_path, "dev42")
    assert load_profile(tmp_path, "dev42") == profile
    # serialization is stable
    assert profile_to_json(profile_from_json(profile_to_json(profile))) == profile_to_json(profile)


def test_profile_json_validates_each_bssid_string_once():
    profile = build_profile_from_maps(HOME, _window_maps(8))
    back = profile_from_json(profile_to_json(profile))
    keys = [b for dm in back.window for b in dm.entries] + list(back.fallback)
    homes = [b for b in keys if b == HOME]
    assert len(homes) == 8 and all(b is homes[0] for b in homes)

    bad = profile_to_json(profile).replace(str(bss(1)), "02:00:00:00:00:zz")
    with pytest.raises(TraceValidationError, match="^invalid BSSID: '02:00:00:00:00:zz'$"):
        profile_from_json(bad)


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


# ---------------------------------------------------------------------------
# reference: the profile document as it was built before the direct writer,
# then handed to the indenting json encoder.


def reference_profile_json(profile):
    doc = {
        "home_bssid": str(profile.home_bssid),
        "built_at": profile.built_at.isoformat(),
        "window": [
            {
                "day_id": dm.day_id.isoformat(),
                "signature_s": dm.signature_s,
                "entries": {
                    str(b): [lab.tl_seconds, lab.tdr_seconds]
                    for b, lab in sorted(dm.entries.items())
                },
            }
            for dm in profile.window
        ],
        "fallback": {
            str(b): [lab.tl_seconds, lab.tdr_seconds]
            for b, lab in sorted(profile.fallback.items())
        },
    }
    if profile.ballots:
        doc["ballots"] = {d.isoformat(): b for d, b in profile.ballots.items()}
    return json.dumps(doc, indent=2, sort_keys=True)


_SIGNATURES = (0.0, -0.0, 2.5, 60.5, 1e16, 1.5e-7, math.nan, math.inf, -math.inf)
_labels = st.builds(ApLabel, st.integers(0, 10**6), st.integers(0, 10**6))
_bssids = st.integers(0, 40).map(bss)


def _day_maps(keys, signatures, max_size=5):
    @st.composite
    def build(draw):
        offsets = draw(st.lists(st.integers(0, 60), unique=True, max_size=max_size))
        return [
            DayMap(
                DAY + timedelta(days=off),
                draw(st.dictionaries(keys, _labels, max_size=4)),
                draw(signatures),
            )
            for off in sorted(offsets)
        ]

    return build()


def _profiles(keys, signatures):
    return st.builds(
        UserProfile,
        home_bssid=_bssids,
        window=_day_maps(keys, signatures).map(tuple),
        fallback=st.dictionaries(keys, _labels, max_size=4),
        built_at=st.dates(),
        ballots=st.dictionaries(st.dates(), st.none() | _bssids, max_size=4),
    )


_any_signature = st.one_of(st.sampled_from(_SIGNATURES), st.floats(), st.integers(0, 10**4))


@settings(max_examples=300, deadline=None)
@given(_profiles(st.one_of(_bssids, st.text(max_size=6)), _any_signature))
def test_profile_writer_matches_json_dumps(profile):
    """Empty windows and maps, -0.0, x.5, 1e16, NaN and the infinities,
    keys that need escaping, and ballots or none, some of them None: the
    text is the indenting encoder's, byte for byte."""
    assert profile_to_json(profile) == reference_profile_json(profile)


_finite_signature = st.one_of(
    st.sampled_from(_SIGNATURES[:6]), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=200, deadline=None)
@given(_profiles(_bssids, _finite_signature))
def test_finite_profile_survives_a_json_round_trip(profile):
    back = profile_from_json(profile_to_json(profile))
    assert back == profile
    assert back.ballots == profile.ballots  # == ignores the ballots


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_profile_from_maps_ignores_their_order(data):
    maps = data.draw(_day_maps(_bssids, st.floats(allow_nan=False), max_size=10))
    shuffled = data.draw(st.permutations(maps))
    assert build_profile_from_maps(HOME, shuffled) == build_profile_from_maps(HOME, maps)


class TestMalformedProfile:
    def _doc(self):
        return json.loads(profile_to_json(build_profile_from_maps(HOME, _window_maps(8))))

    @pytest.mark.parametrize("text", ["", "{", "not json", '{"home_bssid": }'])
    def test_invalid_json(self, text):
        with pytest.raises(ProfileFormatError, match="not valid JSON"):
            profile_from_json(text)

    @pytest.mark.parametrize("key", ["home_bssid", "built_at", "window", "fallback"])
    def test_missing_key(self, key):
        doc = self._doc()
        del doc[key]
        with pytest.raises(ProfileFormatError, match=f"lacks the key '{key}'"):
            profile_from_json(json.dumps(doc))

    def test_missing_key_inside_a_window_day(self):
        doc = self._doc()
        del doc["window"][3]["signature_s"]
        with pytest.raises(ProfileFormatError, match="lacks the key 'signature_s'"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value",
        [
            ((), []),
            ((), None),
            (("window",), 5),
            (("window",), {"a": 1}),
            (("fallback",), [1, 2]),
            (("built_at",), 20240101),
            (("built_at",), "yesterday"),
            (("window", 0, "entries"), []),
            (("window", 0, "signature_s"), "fast"),
            (("window", 0, "entries", str(HOME)), [1]),
            (("window", 0, "entries", str(HOME)), ["a", "b"]),
            (("window", 0, "entries", str(HOME)), [-1, 0]),
            (("window", 0, "entries", str(HOME)), "95"),
            (("window", 0, "entries", str(HOME)), [1.9, 2, 3]),
            (("window", 0, "entries", str(HOME)), [1.0, 2]),
            (("window", 0, "entries", str(HOME)), [True, False]),
            (("window", 0, "entries", str(HOME)), ["1", "2"]),
            (("fallback", str(bss(1))), [1, True]),
            (("window", 0, "signature_s"), "1.5"),
            (("window", 0, "signature_s"), True),
            (("window", 0, "signature_s"), None),
            (("window", 0, "signature_s"), float("nan")),
            (("window", 0, "signature_s"), float("inf")),
            pytest.param(("window", 0, "signature_s"), 10**400, id="signature-past-the-float-range"),
            pytest.param(("window", 0, "entries", str(HOME)), [0, -1], id="negative-tdr"),
            pytest.param(("fallback", str(bss(1))), [-5, 3], id="negative-fallback-tl"),
            pytest.param(("ballots",), ["2024-01-01", None], id="ballots-not-an-object"),
            pytest.param(("ballots",), "2024-01-01", id="ballots-a-string"),
            pytest.param(("ballots",), {"yesterday": None}, id="ballot-date-not-a-date"),
            pytest.param(("ballots",), {"2024-02-30": None}, id="ballot-date-out-of-range"),
        ],
    )
    def test_invalid_value(self, path, value):
        doc = self._doc()
        if path:
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = value
        else:
            doc = value
        with pytest.raises(ProfileFormatError, match="invalid value"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", OTHER_ISO_DATES)
    @pytest.mark.parametrize("where", ["window-day", "ballot", "built_at"])
    def test_a_date_that_is_not_yyyy_mm_dd(self, where, text):
        doc = self._doc()
        if where == "window-day":
            doc["window"][0]["day_id"] = text
        elif where == "ballot":
            doc["ballots"] = {text: None}
        else:
            doc["built_at"] = text
        with pytest.raises(ProfileFormatError, match=f"invalid value \\(Invalid isoformat string: '{text}'\\)"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize("where", ["same-map", "fallback"])
    def test_a_boolean_label_after_its_integer_twin(self, where):
        # True == 1 and both hash alike, so a label read as [1, 1] must not
        # stand in for a later [true, 1]
        doc = self._doc()
        entries = doc["window"][0]["entries"] = {str(bss(1)): [1, 1]}
        (entries if where == "same-map" else doc["fallback"])[str(bss(2))] = [True, 1]
        with pytest.raises(ProfileFormatError, match=r"not \[True, 1\]"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "reorder",
        [lambda w: w[::-1], lambda w: w[:1] + w[:-1]],
        ids=["reversed", "duplicated"],
    )
    def test_window_days_out_of_order(self, reorder):
        doc = self._doc()
        doc["window"] = reorder(doc["window"])
        with pytest.raises(ProfileFormatError, match="window days are not strictly increasing"):
            profile_from_json(json.dumps(doc))

    def test_bad_bssid_is_still_a_validation_error(self):
        doc = self._doc()
        doc["home_bssid"] = "nope"
        with pytest.raises(TraceValidationError, match="invalid BSSID"):
            profile_from_json(json.dumps(doc))

    @pytest.mark.parametrize("ballot", ["nope", 5])
    def test_bad_ballot_bssid_is_a_validation_error(self, ballot):
        doc = self._doc()
        doc["ballots"] = {"2024-01-01": None, "2024-01-02": ballot}
        with pytest.raises(TraceValidationError, match="invalid BSSID"):
            profile_from_json(json.dumps(doc))

    def test_missing_file_names_device_and_store(self, tmp_path):
        with pytest.raises(TimelocError, match=f"no profile for device 'ghost' in store '{tmp_path}'"):
            load_profile(tmp_path, "ghost")

    def test_file_that_is_not_utf8(self, tmp_path):
        (tmp_path / "dev.profile.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(ProfileFormatError, match="not UTF-8"):
            load_profile(tmp_path, "dev")
