import random
from bisect import bisect_left
from collections import Counter
from datetime import date, timedelta
from itertools import accumulate
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeloc.errors import NoNightData
from timeloc.home_mining import (
    GAP_CAP_S,
    NIGHT_CLOSE_S,
    NIGHT_END_SOD,
    NIGHT_OPEN_S,
    NIGHT_START_SOD,
    day_vote,
    nightly_dwell,
    tally_votes,
    vote_home_ap,
    window_homes,
)
from timeloc.simulator import synth_plan_day
from timeloc.trace_model import DAY_S, Bssid, day_slice_start
from util import DAY, NIGHT_END, NIGHT_START, SLICE, bss, day_plans, scan, trace


def reference_dwell(night_scans, target):
    """Literal transcription of the gap-sum rule, kept independent of the
    implementation: presence at scan t_i credits min(t_{i+1} - t_i, cap)."""
    total = 0
    for cur, nxt in zip(night_scans, night_scans[1:]):
        if target in {o.bssid for o in cur.aps}:
            total += min(nxt.ts - cur.ts, GAP_CAP_S)
    return total


class TestNightlyDwell:
    def test_full_night_every_minute(self):
        # scans at 21:00, 21:01, ..., 05:59 -> 540 scans, 539 gaps of 60 s
        scans = [scan(ts, {bss(1): -50}) for ts in range(NIGHT_START, NIGHT_END, 60)]
        t = trace(scans)
        assert nightly_dwell(t)[bss(1)] == 539 * 60 == 32_340

    def test_outside_window_is_absent(self):
        # 20:00-20:30 only
        start = NIGHT_START - 3600
        scans = [scan(ts, {bss(1): -50}) for ts in range(start, start + 1800, 60)]
        assert bss(1) not in nightly_dwell(trace(scans))

    def test_gap_sum_rule_with_cap(self):
        # five night scans at 21:00/21:01/22:00/22:01/23:00; AP in scans 1,2,4
        times = [NIGHT_START, NIGHT_START + 60, NIGHT_START + 3600,
                 NIGHT_START + 3660, NIGHT_START + 7200]
        present = {0, 1, 3}
        scans = [
            scan(ts, {bss(1): -50} if i in present else {bss(2): -60})
            for i, ts in enumerate(times)
        ]
        # hand evaluation of the rule: 60 + cap(3540) + 0 + cap(3540)
        expected = 60 + GAP_CAP_S + 0 + GAP_CAP_S
        assert reference_dwell(scans, bss(1)) == expected == 3660
        assert nightly_dwell(trace(scans))[bss(1)] == expected

    def test_gap_sum_rule_short_final_gap(self):
        # same shape but the last gap is one minute: 60 + cap + 60
        times = [NIGHT_START, NIGHT_START + 60, NIGHT_START + 3600,
                 NIGHT_START + 3660, NIGHT_START + 3720]
        present = {0, 1, 3}
        scans = [
            scan(ts, {bss(1): -50} if i in present else {bss(2): -60})
            for i, ts in enumerate(times)
        ]
        expected = 60 + GAP_CAP_S + 60
        assert reference_dwell(scans, bss(1)) == expected == 1920
        assert nightly_dwell(trace(scans))[bss(1)] == expected

    def test_scan_exactly_at_six_is_excluded(self):
        scans = [scan(NIGHT_END - 60, {bss(1): -50}), scan(NIGHT_END, {bss(1): -50})]
        # the 06:00 scan is outside the window, so no pair remains
        assert nightly_dwell(trace(scans)) == {}

    def test_monotone_under_added_scan(self):
        rng = random.Random(3)
        for _ in range(50):
            times = sorted(rng.sample(range(NIGHT_START, NIGHT_END, 30), 20))
            scans = [
                scan(ts, {bss(1): -50} if rng.random() < 0.5 else {bss(2): -50})
                for ts in times
            ]
            base = nightly_dwell(trace(scans)).get(bss(1), 0)
            extra_ts = rng.randrange(NIGHT_START, NIGHT_END)
            augmented = sorted(scans + [scan(extra_ts, {bss(1): -50})], key=lambda s: s.ts)
            # duplicate timestamps are fine for the rule; rebuild unique
            if len({s.ts for s in augmented}) != len(augmented):
                continue
            got = nightly_dwell(trace(augmented)).get(bss(1), 0)
            assert got >= base


def _night_trace(day, winner, winner_seconds=30_000, runner_up_seconds=3000):
    start = day_slice_start(day) + 32_400
    scans = []
    for ts in range(start, start + winner_seconds, 600):
        scans.append(scan(ts, {winner: -45}))
    other_start = start + winner_seconds + 600
    for ts in range(other_start, other_start + runner_up_seconds, 600):
        scans.append(scan(ts, {bss(9): -60}))
    return trace(scans, day=day)


class TestVoteHomeAp:
    def test_unanimous(self):
        days = [_night_trace(DAY + timedelta(days=i), bss(1)) for i in range(3)]
        vote = vote_home_ap(days)
        assert vote.winner == bss(1)
        assert vote.confidence == 1.0

    def test_majority_two_out_of_three(self):
        days = [
            _night_trace(DAY, bss(1)),
            _night_trace(DAY + timedelta(days=1), bss(1)),
            _night_trace(DAY + timedelta(days=2), bss(2)),
        ]
        vote = vote_home_ap(days)
        assert vote.winner == bss(1)
        assert vote.confidence == pytest.approx(2 / 3)
        assert vote.tally == {bss(1): 2, bss(2): 1}

    def test_planted_home_on_synthetic_dataset(self):
        from timeloc import simulator as sim

        scenario = sim.mining_scenario(n_days=14)
        traces, _ = sim.synth_dataset(scenario, seed=77)
        assert vote_home_ap(traces).winner == scenario.route.home_bssid

    def test_no_night_data(self):
        daytime = trace([scan(day_slice_start(DAY) + 3600, {bss(1): -50})])
        with pytest.raises(NoNightData):
            vote_home_ap([daytime])

    def test_reordering_days_is_irrelevant(self):
        days = [
            _night_trace(DAY + timedelta(days=i), bss(1) if i % 3 else bss(2))
            for i in range(6)
        ]
        forward = vote_home_ap(days)
        backward = vote_home_ap(list(reversed(days)))
        assert forward.winner == backward.winner
        assert forward.tally == backward.tally

    def test_tie_day_goes_to_smallest_bssid(self):
        ts = day_slice_start(DAY) + 32_400
        tied = trace([scan(ts, {bss(2): -50, bss(1): -55}), scan(ts + 600, {bss(2): -50, bss(1): -55})])
        vote = vote_home_ap([tied])
        assert vote.winner == bss(1)  # equal dwell, smaller BSSID wins

    def test_winner_matches_accumulated_dwell_argmax(self):
        # when one AP dominates every night, the vote agrees with the
        # accumulated-time view across all days
        days = [_night_trace(DAY + timedelta(days=i), bss(1)) for i in range(5)]
        totals = {}
        for t in days:
            for b, s in nightly_dwell(t).items():
                totals[b] = totals.get(b, 0) + s
        assert max(totals, key=totals.get) == vote_home_ap(days).winner


class TestDayVotes:
    def test_vote_equals_tally_of_per_day_votes(self):
        from timeloc import simulator as sim

        scenario = sim.relocation_scenario(move_day=6, n_days=12)
        traces, _ = sim.synth_dataset(scenario, seed=5)
        for lo in range(len(traces) - 3):
            window = traces[lo : lo + 4]
            assert vote_home_ap(window) == tally_votes([day_vote(t) for t in window])

    def test_tie_day_ballot(self):
        ts = day_slice_start(DAY) + 32_400
        tied = trace([scan(ts, {bss(2): -50, bss(1): -55}), scan(ts + 600, {bss(2): -50, bss(1): -55})])
        ballot = day_vote(tied)
        assert ballot == bss(1)
        assert vote_home_ap([tied]) == tally_votes([ballot])

    def test_day_without_dwell_casts_no_vote(self):
        daytime = trace([scan(day_slice_start(DAY) + 3600, {bss(1): -50})])
        assert day_vote(daytime) is None
        with pytest.raises(NoNightData):
            tally_votes([day_vote(daytime)])
        night = _night_trace(DAY + timedelta(days=1), bss(3))
        assert tally_votes([day_vote(daytime), day_vote(night)]) == vote_home_ap([daytime, night])


# ---------------------------------------------------------------------------
# reference: the dwell rule before the night scans were found by bisection.
# Every scan of the day is tested against the 21:00-06:00 window.


def reference_nightly_dwell(t):
    def in_night(ts):
        sod = ts % DAY_S
        return sod >= NIGHT_START_SOD or sod < NIGHT_END_SOD

    night = [s for s in t.scans if in_night(s.ts)]
    dwell = {}
    for cur, nxt in zip(night, night[1:]):
        credit = min(nxt.ts - cur.ts, GAP_CAP_S)
        if credit <= 0:
            continue
        for o in cur.aps:
            dwell[o.bssid] = dwell.get(o.bssid, 0) + credit
    return dwell


# Seconds after the slice start (12:00): both slice edges, 20:59:59, 21:00:00,
# 05:59:59 and 06:00:00.
_NIGHT_EDGES = (0, 1, 32_399, 32_400, 32_401, 64_799, 64_800, 64_801, DAY_S - 1)


@st.composite
def edge_heavy_days(draw):
    """Day traces whose scans crowd the night and slice edges, some sharing
    a timestamp, on a slice before the epoch or after it."""
    day = draw(st.sampled_from([DAY, date(1969, 12, 31), date(2031, 7, 4)]))
    offsets = draw(
        st.lists(
            st.one_of(st.sampled_from(_NIGHT_EDGES), st.integers(0, DAY_S - 1)),
            max_size=25,
        )
    )
    start = day_slice_start(day)
    scans = [
        scan(start + off, {bss(k): -50 for k in draw(st.sets(st.integers(1, 4), max_size=3))})
        for off in sorted(offsets)
    ]
    return trace(scans, day=day)


@settings(max_examples=300, deadline=None)
@given(edge_heavy_days())
def test_nightly_dwell_matches_reference(t):
    assert nightly_dwell(t) == reference_nightly_dwell(t)


# ---------------------------------------------------------------------------
# reference: nightly_dwell when it sliced out the night scans and zipped the
# slice with itself.  The body is verbatim.

_scan_ts = attrgetter("ts")


def sliced_nightly_dwell(trace):
    scans = trace.scans
    start = day_slice_start(trace.day_id)
    lo = bisect_left(scans, start + NIGHT_OPEN_S, key=_scan_ts)
    hi = bisect_left(scans, start + NIGHT_CLOSE_S, lo, key=_scan_ts)
    night = scans[lo:hi]
    dwell = {}
    for cur, nxt in zip(night, night[1:]):
        credit = min(nxt.ts - cur.ts, GAP_CAP_S)
        if credit <= 0:
            continue
        for o in cur.aps:
            dwell[o.bssid] = dwell.get(o.bssid, 0) + credit
    return dwell


_GAPS = (0, 1, GAP_CAP_S - 1, GAP_CAP_S, GAP_CAP_S + 1, 4 * GAP_CAP_S)


@st.composite
def gap_runs(draw):
    """Day traces laid out as a first scan and a run of gaps: repeated
    timestamps, gaps at and past GAP_CAP_S, scans on the night edges, and
    nights that hold one scan or none."""
    day = draw(st.sampled_from([DAY, date(1969, 12, 31)]))
    first = draw(st.one_of(st.sampled_from(_NIGHT_EDGES), st.integers(0, DAY_S - 1)))
    gaps = draw(st.lists(st.one_of(st.sampled_from(_GAPS), st.integers(0, 2 * GAP_CAP_S)), max_size=30))
    start = day_slice_start(day)
    return trace(
        [
            scan(start + off, {bss(k): -50 for k in draw(st.sets(st.integers(1, 4), max_size=3))})
            for off in accumulate([first, *gaps])
            if off < DAY_S
        ],
        day=day,
    )


# ---------------------------------------------------------------------------
# reference: nightly_dwell when it bisected the scans with a key and read each
# credit from the scans' stamps.  The body is verbatim.


def keyed_nightly_dwell(trace):
    scans = trace.scans
    start = day_slice_start(trace.day_id)
    lo = bisect_left(scans, start + NIGHT_OPEN_S, key=_scan_ts)
    hi = bisect_left(scans, start + NIGHT_CLOSE_S, lo, key=_scan_ts)
    dwell: dict[Bssid, int] = {}
    get = dwell.get
    for i in range(lo, hi - 1):
        cur = scans[i]
        credit = scans[i + 1].ts - cur.ts
        if credit <= 0:
            continue
        credit = GAP_CAP_S if credit > GAP_CAP_S else credit
        for o in cur.aps:
            dwell[o.bssid] = get(o.bssid, 0) + credit
    return dwell


def _offsets_day(*offsets):
    return trace([scan(SLICE + off, {bss(1): -50, bss(2): -60}) for off in offsets])


@settings(max_examples=300, deadline=None)
@given(gap_runs())
@example(_offsets_day())  # no scans at all
@example(_offsets_day(0, 600, DAY_S - 1))  # scans on the day, none at night
@example(_offsets_day(600, 40_000, 70_000))  # one night scan
@example(_offsets_day(32_399, 32_400, 32_400, 64_799, 64_800))  # both edges, a repeat
@example(_offsets_day(32_400, 32_400 + GAP_CAP_S + 1, 64_799))  # gaps past the cap
def test_nightly_dwell_matches_the_sliced_dwell(t):
    assert nightly_dwell(t) == sliced_nightly_dwell(t)


@settings(max_examples=300, deadline=None)
@given(gap_runs())
@example(_offsets_day(600, 40_000, 70_000))  # one night scan
@example(_offsets_day(32_400, 32_400, 40_000, 40_000, 40_000, 64_799))  # repeats credit nothing
def test_nightly_dwell_matches_the_keyed_dwell(t):
    assert nightly_dwell(t) == keyed_nightly_dwell(t)


@settings(max_examples=40, deadline=None)
@given(day_plans())
def test_nightly_dwell_matches_the_keyed_dwell_on_simulated_days(plan):
    assert nightly_dwell(synth_plan_day(plan)[0]) == keyed_nightly_dwell(synth_plan_day(plan)[0])


@settings(max_examples=300, deadline=None)
@given(edge_heavy_days())
def test_day_vote_is_the_smallest_top_dwell_bssid(t):
    dwell = reference_nightly_dwell(t)
    ballot = day_vote(t)
    if not dwell:
        assert ballot is None
    else:
        top = max(dwell.values())
        assert ballot == sorted(b for b, s in dwell.items() if s == top)[0]


@settings(max_examples=100, deadline=None)
@given(st.lists(edge_heavy_days(), max_size=10), st.integers(1, 9))
def test_window_homes_votes_the_read_days_ending_at_each_day(days, length):
    votes = [day_vote(t) for t in days]
    if all(v is None for v in votes):
        with pytest.raises(NoNightData) as raised:
            window_homes(votes, length)
        with pytest.raises(NoNightData) as tallied:
            tally_votes(votes)
        assert str(raised.value) == str(tallied.value)
        return
    homes = window_homes(votes, length)
    assert len(homes) == len(days)
    for i, home in enumerate(homes):
        try:
            assert home == vote_home_ap(days[max(0, i - length + 1) : i + 1]).winner
        except NoNightData:
            assert home is None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(1, 4).map(bss)), max_size=12))
def test_tally_breaks_ties_toward_the_smallest_bssid(ballots):
    counts = Counter(b for b in ballots if b is not None)
    if not counts:
        with pytest.raises(NoNightData):
            tally_votes(ballots)
        return
    vote = tally_votes(ballots)
    top = max(counts.values())
    assert vote.winner == min(b for b, n in counts.items() if n == top)
    assert vote.tally == counts
    assert vote.confidence == counts[vote.winner] / sum(counts.values())


def test_night_window_constants():
    assert NIGHT_START_SOD == 21 * 3600
    assert NIGHT_END_SOD == 6 * 3600
