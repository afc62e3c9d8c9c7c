import math
import statistics
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloc import door_detect
from timeloc import simulator as sim
from timeloc.door_detect import (
    ACCEL_VAR_THRESHOLD,
    RSSI_VAR_THRESHOLD_DB2,
    _near_peak,
    _standing_at,
    ap_count_peak,
    detect_door_events,
    is_fluctuating,
    is_standing,
)
from util import SLICE, accel, bss, commute_day, scan, trace


class TestRssiFluctuation:
    def test_constant_series_scores_zero(self):
        assert statistics.variance([-60, -60, -60, -60, -60]) == 0
        assert is_fluctuating([-60, -60, -60, -60, -60]) is False

    def test_two_point_sample_variance(self):
        assert statistics.variance([-60, -66]) == 18.0
        assert is_fluctuating([-60, -66]) is True

    def test_planted_dip_window_exceeds_threshold(self):
        # four scans at the plateau then the first dipped scan (-8 dB)
        window = [-45, -45, -45, -45, -53]
        assert statistics.variance(window) == pytest.approx(12.8)
        assert is_fluctuating(window) is True

    def test_threshold_is_inclusive(self):
        assert statistics.variance([-60, -63, -66]) == 9
        assert is_fluctuating([-60, -63, -66]) is True
        assert is_fluctuating([-60, -62, -64]) is False

    def test_short_window_fails_its_condition(self):
        assert is_fluctuating([-60]) is False
        assert is_fluctuating([]) is False


class TestIsStanding:
    def test_constant_magnitude_is_standing(self):
        samples = [accel(SLICE + i, 9.81) for i in range(4)]
        assert is_standing(samples) is True

    def test_alternating_walk_is_not(self):
        samples = [accel(SLICE + i, 8.0 if i % 2 else 12.0) for i in range(4)]
        assert statistics.pvariance([s.magnitude_mps2 for s in samples]) == 4.0
        assert is_standing(samples) is False

    def test_simulated_stillness_segment(self):
        route = sim.make_chain_route()
        t, truth = commute_day(route, sim.WALK, sim.NoiseParams(rssi_sigma_db=4.0), seed=9)
        window = [a for a in t.accel if abs(a.ts - truth.door_ts) <= 2]
        assert len(window) == 5
        assert statistics.pvariance([a.magnitude_mps2 for a in window]) < 0.1
        assert is_standing(window) is True

    def test_threshold_is_exclusive(self):
        samples = [accel(SLICE + i, m) for i, m in enumerate([9.0, 11.0, 10.0, 10.0])]
        assert statistics.pvariance([s.magnitude_mps2 for s in samples]) == 0.5
        assert is_standing(samples) is False

    def test_too_few_samples(self):
        # a short window fails its condition
        assert is_standing([accel(SLICE, 9.81), accel(SLICE + 1, 9.81)]) is False
        assert is_standing([]) is False


# ---------------------------------------------------------------------------
# reference: both predicates as they read with the statistics module, whose
# rational arithmetic decides every window exactly.


def reference_is_fluctuating(window):
    return len(window) >= 2 and statistics.variance(window) >= RSSI_VAR_THRESHOLD_DB2


def reference_is_standing(samples):
    return len(samples) >= 3 and statistics.pvariance([s.magnitude_mps2 for s in samples]) < ACCEL_VAR_THRESHOLD


def test_integer_fluctuation_test_matches_statistics_on_every_small_spread():
    """Every multiset of up to 6 readings within 7 dB, which includes each
    window whose variance is exactly the threshold."""
    at_threshold = 0
    for n in range(7):
        for offsets in combinations_with_replacement(range(8), n):
            window = [-70 + o for o in offsets]
            at_threshold += n >= 2 and statistics.variance(window) == RSSI_VAR_THRESHOLD_DB2
            assert is_fluctuating(window) == reference_is_fluctuating(window)
    assert at_threshold > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-120, 0), max_size=8))
def test_integer_fluctuation_test_matches_statistics(window):
    assert is_fluctuating(window) == reference_is_fluctuating(window)


@st.composite
def accel_windows(draw):
    """Magnitude windows at the threshold and one ulp off it, huge equal
    values, repeated values and arbitrary ones up to 1e18."""
    kind = draw(st.sampled_from(["threshold", "large", "repeated", "any"]))
    if kind == "threshold":
        # each has a population variance of exactly 0.5 around c
        c = draw(st.integers(2, 2**40)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
        mags = draw(
            st.sampled_from([[c - 1, c + 1, c, c], [c, c, c + 1.5], [c - 1, c + 1] * 2 + [c] * 4])
        )
    elif kind == "large":
        mags = [draw(st.floats(1e12, 1e18))] * draw(st.integers(3, 6))
    elif kind == "repeated":
        mags = draw(st.lists(st.sampled_from([9.8, 9.81, 10.31, 11.0]), max_size=6))
    else:
        mags = draw(st.lists(st.floats(0, 1e18), max_size=8))
    if mags and draw(st.booleans()):
        i = draw(st.integers(0, len(mags) - 1))
        mags[i] = math.nextafter(mags[i], draw(st.sampled_from([0.0, math.inf])))
    mags = draw(st.permutations(mags))
    return [accel(SLICE + i, m) for i, m in enumerate(mags)]


@settings(max_examples=500, deadline=None)
@given(accel_windows())
def test_filtered_standing_test_matches_statistics(samples):
    assert is_standing(samples) == reference_is_standing(samples)


def test_standing_at_the_threshold_and_one_ulp_off_it():
    for c in (9.81, 1e6 + 0.5, 2.0**40):
        window = [c - 1, c + 1, c, c]
        assert statistics.pvariance(window) == ACCEL_VAR_THRESHOLD
        below, above = math.nextafter(c + 1, 0.0), math.nextafter(c + 1, math.inf)
        for high, expected in ((c + 1, False), (below, True), (above, False)):
            samples = [accel(SLICE + i, m) for i, m in enumerate([c - 1, high, c, c])]
            assert is_standing(samples) is expected is reference_is_standing(samples)


def test_a_large_magnitude_decides_exactly():
    """The float mean of three equal magnitudes near 1.4e17 can be one ulp
    (16) off, which makes their float variance 256 where the exact one is 0:
    no fixed margin around the threshold holds at that scale."""
    samples = [accel(SLICE + i, 1.4302060167127722e17) for i in range(3)]
    assert is_standing(samples) is True


def test_simulated_days_never_need_the_exact_fallback(monkeypatch):
    """The float variance decides every window of a simulated commute, so no
    rational arithmetic runs on the detection path."""

    def exact(_):
        raise AssertionError("a window fell inside the rounding bound")

    monkeypatch.setattr(door_detect, "pvariance", exact)
    for seed in (21, 22, 23):
        route, (t, truth) = _door_day(seed=seed)
        events = detect_door_events(t, route.home_bssid)
        assert any(abs(e.ts - truth.door_ts) <= 10 for e in events)


class TestApCountPeak:
    def test_flat_series_has_no_peaks(self):
        assert ap_count_peak([5] * 12) == []

    def test_single_spike(self):
        # four neighbours a side; the spike must clear both means by two APs
        for spike, peaks in ((9, [4]), (7, [4]), (6, [])):
            assert ap_count_peak([5, 5, 5, 5, spike, 5, 5, 5, 5]) == peaks

    def test_short_series_has_no_peaks(self):
        # a spike of 9 among 8 points has no full neighbourhood
        assert ap_count_peak([9 if i == 4 else 5 for i in range(8)]) == []

    def test_exactly_one_peak_per_planted_door(self):
        route = sim.make_chain_route()
        t, truth = commute_day(route, sim.WALK, sim.NoiseParams(rssi_sigma_db=4.0), seed=13)
        peaks = ap_count_peak([len(s.aps) for s in t.scans])
        near_door = [p for p in peaks if abs(t.scans[p].ts - truth.door_ts) <= 10]
        assert len(near_door) == 1


def _door_day(seed=21, sigma=4.0, dropout=0.03):
    route = sim.make_chain_route()
    noise = sim.NoiseParams(rssi_sigma_db=sigma, dropout_prob=dropout)
    return route, commute_day(route, sim.WALK, noise, seed=seed)


class TestDetectDoorEvents:
    def test_no_home_sighting_means_no_events(self):
        scans = [scan(SLICE + i * 5, {bss(1): -50}) for i in range(40)]
        t = trace(scans)
        assert detect_door_events(t, bss(9)) == []

    def test_constant_walking_blocks_condition_two(self):
        route, (t, truth) = _door_day()
        # replace every accelerometer sample with vigorous motion
        shaky = trace(
            t.scans,
            [accel(a.ts, 9.8 + (2.5 if i % 2 else -2.5)) for i, a in enumerate(t.accel)],
            day=t.day_id,
        )
        assert detect_door_events(shaky, route.home_bssid) == []

    def test_planted_door_found_within_ten_seconds(self):
        route, (t, truth) = _door_day()
        events = detect_door_events(t, route.home_bssid)
        assert any(abs(e.ts - truth.door_ts) <= 10 for e in events)

    def test_events_only_where_home_visible(self):
        route, (t, _) = _door_day()
        home_ts = {s.ts for s in t.scans if s.rssi_of(route.home_bssid) is not None}
        for e in detect_door_events(t, route.home_bssid):
            assert e.ts in home_ts

    def test_burst_merges_within_thirty_seconds(self):
        route, (t, _) = _door_day()
        events = detect_door_events(t, route.home_bssid)
        for a, b in zip(events, events[1:]):
            assert b.ts - a.ts >= 30

    def test_a_scan_stamped_like_the_peak_does_not_widen_its_reach(self):
        # The peak is scan 5 and scan 6 shares its timestamp: the reach is
        # scans 3-7, so the fluctuating home reading of scan 8 is no event.
        stamps = [SLICE + 5 * i for i in range(12)]
        stamps[6] = stamps[5]
        aps = [{bss(1): -70} for _ in stamps]
        aps[5].update({bss(k): -70 for k in range(2, 7)})
        aps[7][bss(99)] = -60
        aps[8][bss(99)] = -66
        t = trace(
            [scan(ts, a) for ts, a in zip(stamps, aps)],
            [accel(stamps[8] + d, 9.81) for d in (-1, 0, 1)],
        )
        assert ap_count_peak([len(s.aps) for s in t.scans]) == [5]
        assert _near_peak(t.scans) == {3, 4, 5, 6, 7}
        assert detect_door_events(t, bss(99)) == []
        assert reference_door_ts(t, bss(99)) == []


# ---------------------------------------------------------------------------
# reference: the detector before condition 3 was precomputed.  Every
# condition is tested on every home-visible scan, in the order fluctuation,
# standing, then an any() scan over the peak indices.


def _reference_peaks(counts, delta=2, neighborhood=4):
    peaks = []
    for i in range(neighborhood, len(counts) - neighborhood):
        c = counts[i]
        left = sum(counts[j] for j in range(i - neighborhood, i)) / neighborhood
        right = sum(counts[j] for j in range(i + 1, i + 1 + neighborhood)) / neighborhood
        if c - left >= delta and c - right >= delta:
            peaks.append(i)
    return peaks


def _reference_standing_at(t, ts):
    window = [a for a in t.accel if abs(a.ts - ts) <= 1.5]
    if len(window) < 3:
        return False
    return statistics.pvariance([a.magnitude_mps2 for a in window]) < 0.5


def reference_door_ts(t, home):
    scans = t.scans
    counts = [len(s.aps) for s in scans]
    peak_idx = _reference_peaks(counts) if len(counts) >= 9 else []
    hist, candidates = [], []
    for i, s in enumerate(scans):
        rssi = s.rssi_of(home)
        if rssi is None:
            continue
        hist.append(rssi)
        window = hist[-5:]
        if len(window) < 2:
            continue
        fluctuating = statistics.variance(window) >= 9.0
        if not (fluctuating and _reference_standing_at(t, s.ts)):
            continue
        if any(abs(i - pi) <= 2 for pi in peak_idx):
            candidates.append(s.ts)
    out = []
    for ts in candidates:
        if out and ts - out[-1] < 30:
            continue
        out.append(ts)
    return out


def _around_door(t, door_ts, before, length):
    """A trace cut to ``length`` scans starting ``before`` scans ahead of the door."""
    at = next(i for i, s in enumerate(t.scans) if s.ts >= door_ts)
    start = max(0, at - before)
    return replace(t, scans=t.scans[start : start + length])


def _equivalence_cases():
    route = sim.make_chain_route()
    for seed in range(6):
        for sigma in (0.0, 4.0, 8.0):
            noise = sim.NoiseParams(rssi_sigma_db=sigma, dropout_prob=0.05)
            t, truth = commute_day(route, sim.WALK, noise, seed=seed)
            yield t, route.home_bssid, truth.door_ts
    scenario = sim.relocation_scenario(move_day=4, n_days=8)
    traces, truths = sim.synth_dataset(scenario, seed=3)
    homes = (scenario.route.home_bssid, sim.NEW_HOME_BSSID)
    for t, truth in zip(traces, truths):
        for home in homes:  # one of the two is never seen that day
            yield t, home, truth.door_ts


def test_matches_reference_detector():
    days = never_seen = short = 0
    for t, home, door_ts in _equivalence_cases():
        days += 1
        never_seen += all(s.rssi_of(home) is None for s in t.scans)
        assert [e.ts for e in detect_door_events(t, home)] == reference_door_ts(t, home)
        for before in (0, 2, 4, 6):
            for length in (1, 3, 8, 9, 10, 12):
                cut = _around_door(t, door_ts, before, length)
                short += len(cut.scans) < 9
                got = [e.ts for e in detect_door_events(cut, home)]
                assert got == reference_door_ts(cut, home)
    assert days == 34 and never_seen >= 8 and short > 0


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sigma=st.floats(0.0, 10.0),
    dropout=st.floats(0.0, 0.3),
)
def test_events_sit_on_home_scans_and_are_merged(seed, sigma, dropout):
    route, (t, _) = _door_day(seed=seed, sigma=sigma, dropout=dropout)
    home = route.home_bssid
    home_ts = {s.ts for s in t.scans if s.rssi_of(home) is not None}
    events = [e.ts for e in detect_door_events(t, home)]
    assert set(events) <= home_ts
    assert all(b - a >= 30 for a, b in zip(events, events[1:]))


@st.composite
def door_like_traces(draw):
    """Short traces dense in near-misses: AP-count spikes, home RSSI that
    varies by exactly 9 dB^2, two or three accel samples around a scan, and
    repeated scan timestamps."""
    scans, mags, ts = [], {}, SLICE + 2
    for gap in draw(st.lists(st.integers(0, 12), min_size=9, max_size=30)):
        ts += gap
        aps = {bss(k): -70 for k in range(draw(st.sampled_from([1, 1, 2, 6])))}
        if draw(st.integers(0, 3)):
            aps[bss(99)] = draw(st.sampled_from([-60, -63, -66, -75]))
        scans.append(scan(ts, aps))
        for offset in draw(st.sampled_from([(), (-1, 1), (-1, 0, 1), (0, 1, 2)])):
            mags[ts + offset] = draw(st.sampled_from([9.8, 9.9, 11.0]))
    return trace(scans, [accel(sec, mags[sec]) for sec in sorted(mags)])


@settings(max_examples=300, deadline=None)
@given(door_like_traces())
def test_matches_reference_on_generated_traces(t):
    assert [e.ts for e in detect_door_events(t, bss(99))] == reference_door_ts(t, bss(99))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=40))
def test_integer_peak_test_matches_float_means(values):
    assert ap_count_peak(values) == _reference_peaks(values)


@settings(max_examples=300, deadline=None)
@given(
    offsets=st.lists(
        st.one_of(st.sampled_from([-2, -1, 0, 1, 2]), st.integers(-6, 6)), max_size=12
    ),
    mags=st.lists(st.sampled_from([9.8, 9.9, 11.0]), min_size=12, max_size=12),
    at=st.integers(-3, 3),
)
def test_bisected_accel_window_matches_linear_filter(offsets, mags, at):
    """Samples at +-1 and +-2 s (inside and outside the 1.5 s half-window),
    repeated timestamps included."""
    t = trace([], [accel(SLICE + 100 + off, m) for off, m in zip(sorted(offsets), mags)])
    assert _standing_at(t, SLICE + 100 + at) == _reference_standing_at(t, SLICE + 100 + at)
