import random
from datetime import timedelta

import pytest

from timeloc.errors import NoNightData
from timeloc.home_mining import (
    GAP_CAP_S,
    NIGHT_END_SOD,
    NIGHT_START_SOD,
    day_vote,
    nightly_dwell,
    tally_votes,
    total_dwell,
    vote_home_ap,
)
from timeloc.trace_model import day_slice_start
from util import DAY, NIGHT_END, NIGHT_START, bss, scan, trace


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
        assert nightly_dwell(t).dwell[bss(1)] == 539 * 60 == 32_340

    def test_outside_window_is_absent(self):
        # 20:00-20:30 only
        start = NIGHT_START - 3600
        scans = [scan(ts, {bss(1): -50}) for ts in range(start, start + 1800, 60)]
        assert bss(1) not in nightly_dwell(trace(scans)).dwell

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
        assert nightly_dwell(trace(scans)).dwell[bss(1)] == expected

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
        assert nightly_dwell(trace(scans)).dwell[bss(1)] == expected

    def test_scan_exactly_at_six_is_excluded(self):
        scans = [scan(NIGHT_END - 60, {bss(1): -50}), scan(NIGHT_END, {bss(1): -50})]
        # the 06:00 scan is outside the window, so no pair remains
        assert nightly_dwell(trace(scans)).dwell == {}

    def test_monotone_under_added_scan(self):
        rng = random.Random(3)
        for _ in range(50):
            times = sorted(rng.sample(range(NIGHT_START, NIGHT_END, 30), 20))
            scans = [
                scan(ts, {bss(1): -50} if rng.random() < 0.5 else {bss(2): -50})
                for ts in times
            ]
            base = nightly_dwell(trace(scans)).dwell.get(bss(1), 0)
            extra_ts = rng.randrange(NIGHT_START, NIGHT_END)
            augmented = sorted(scans + [scan(extra_ts, {bss(1): -50})], key=lambda s: s.ts)
            # duplicate timestamps are fine for the rule; rebuild unique
            if len({s.ts for s in augmented}) != len(augmented):
                continue
            got = nightly_dwell(trace(augmented)).dwell.get(bss(1), 0)
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

    def test_tie_day_flagged_and_lexicographic(self):
        ts = day_slice_start(DAY) + 32_400
        tied = trace([scan(ts, {bss(2): -50, bss(1): -55}), scan(ts + 600, {bss(2): -50, bss(1): -55})])
        vote = vote_home_ap([tied])
        assert vote.winner == bss(1)  # equal dwell, smaller BSSID wins
        assert vote.tie_days == (DAY,)

    def test_winner_matches_accumulated_dwell_argmax(self):
        # when one AP dominates every night, the vote agrees with the
        # accumulated-time view across all days
        days = [_night_trace(DAY + timedelta(days=i), bss(1)) for i in range(5)]
        totals = total_dwell(days)
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
        assert (ballot.day_id, ballot.vote, ballot.tied) == (DAY, bss(1), True)
        assert vote_home_ap([tied]) == tally_votes([ballot])

    def test_day_without_dwell_casts_no_vote(self):
        daytime = trace([scan(day_slice_start(DAY) + 3600, {bss(1): -50})])
        assert day_vote(daytime).vote is None
        with pytest.raises(NoNightData):
            tally_votes([day_vote(daytime)])
        night = _night_trace(DAY + timedelta(days=1), bss(3))
        assert tally_votes([day_vote(daytime), day_vote(night)]) == vote_home_ap([daytime, night])


def test_night_window_constants():
    assert NIGHT_START_SOD == 21 * 3600
    assert NIGHT_END_SOD == 6 * 3600
