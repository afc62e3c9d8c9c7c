"""Home-AP mining by nightly-dwell voting.

Each day accumulates, per BSSID, the seconds it stayed reachable between
21:00 and 06:00; the day's top BSSID casts one vote, and the modal vote
across days is declared the home AP.  ``day_vote`` casts one day's ballot
and ``tally_votes`` counts ballots, so a caller that keeps per-day ballots
(the evaluation harness) can re-tally a sliding window without recomputing
any day's dwell.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping

from .errors import NoNightData
from .trace_model import Bssid, DayTrace, seconds_of_day

NIGHT_START_SOD = 21 * 3600
NIGHT_END_SOD = 6 * 3600
# Gaps longer than the sleep-state wake period indicate missing data, not
# dwell, so a single inter-scan credit is capped here.
GAP_CAP_S = 1800


def _in_night_window(ts: int) -> bool:
    sod = seconds_of_day(ts)
    return sod >= NIGHT_START_SOD or sod < NIGHT_END_SOD


@dataclass(frozen=True, slots=True)
class NightlyDwell:
    """Per-BSSID reachable seconds inside one day's 21:00-06:00 window."""

    day_id: date
    dwell: Mapping[Bssid, int]


@dataclass(frozen=True, slots=True)
class HomeVote:
    """Outcome of the daily vote: winner, per-BSSID vote tally, confidence.

    ``tie_days`` lists days whose argmax was ambiguous and got the
    lexicographic tie-break.
    """

    winner: Bssid
    tally: Mapping[Bssid, int]
    confidence: float
    tie_days: tuple[date, ...] = ()


def nightly_dwell(trace: DayTrace) -> NightlyDwell:
    """Accumulate reachable seconds per BSSID over the night window.

    Presence at scan t_i credits the gap to the next night scan t_{i+1},
    capped at GAP_CAP_S.  BSSIDs never seen at night are absent from the map.
    """
    night = [s for s in trace.scans if _in_night_window(s.ts)]
    dwell: dict[Bssid, int] = {}
    for cur, nxt in zip(night, night[1:]):
        credit = min(nxt.ts - cur.ts, GAP_CAP_S)
        if credit <= 0:
            continue
        for o in cur.aps:
            dwell[o.bssid] = dwell.get(o.bssid, 0) + credit
    return NightlyDwell(trace.day_id, dwell)


def total_dwell(traces: Iterable[DayTrace]) -> dict[Bssid, int]:
    """Dwell seconds summed over all days (the accumulated-time view)."""
    totals: dict[Bssid, int] = {}
    for t in traces:
        for b, s in nightly_dwell(t).dwell.items():
            totals[b] = totals.get(b, 0) + s
    return totals


@dataclass(frozen=True, slots=True)
class DayVote:
    """One day's ballot: its dwell argmax, or None for a day without dwell.

    ``tied`` marks a day whose argmax was ambiguous and went to the
    lexicographically smallest BSSID.
    """

    day_id: date
    vote: Bssid | None
    tied: bool = False


def day_vote(trace: DayTrace) -> DayVote:
    """The BSSID with the most nightly dwell on this day (smallest on ties)."""
    dwell = nightly_dwell(trace).dwell
    if not dwell:
        return DayVote(trace.day_id, None)
    top = max(dwell.values())
    leaders = sorted(b for b, s in dwell.items() if s == top)
    return DayVote(trace.day_id, leaders[0], len(leaders) > 1)


def tally_votes(votes: Iterable[DayVote]) -> HomeVote:
    """Modal vote over days; overall ties break toward the smallest BSSID.

    Days without a vote are skipped.  Raises NoNightData when no day voted.
    """
    tally: dict[Bssid, int] = {}
    tie_days: list[date] = []
    voting_days = 0
    for v in votes:
        if v.vote is None:
            continue
        if v.tied:
            tie_days.append(v.day_id)
        tally[v.vote] = tally.get(v.vote, 0) + 1
        voting_days += 1
    if voting_days == 0:
        raise NoNightData("no scans inside the 21:00-06:00 window on any day")
    best = max(tally.values())
    winner = min(b for b, n in tally.items() if n == best)
    return HomeVote(
        winner=winner,
        tally=tally,
        confidence=tally[winner] / voting_days,
        tie_days=tuple(tie_days),
    )


def vote_home_ap(traces: Iterable[DayTrace]) -> HomeVote:
    """Elect the home AP: per-day dwell argmax votes, modal vote wins.

    Ties (within a day or overall) break toward the lexicographically
    smallest BSSID; per-day ties are reported in ``tie_days``.  Raises
    NoNightData when no day has any nightly dwell.
    """
    return tally_votes(day_vote(t) for t in traces)
