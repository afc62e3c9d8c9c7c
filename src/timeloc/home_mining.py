"""Home-AP mining by nightly-dwell voting.

Each day accumulates, per BSSID, the seconds it stayed reachable between
21:00 and 06:00; the day's top BSSID casts one vote (``day_vote``), and the
modal vote across days (``tally_votes``) is declared the home AP.

Two rules for the home on day d stay apart on purpose.  A prediction on d
uses the W calendar days before d and never d's own night, which comes
after the arrival it predicts (``evaluate``, ``predict --method nn``).  A
fold uses the W read days ending at d (``window_homes``: build-profile and
detect-door; ``update_profile``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import NoNightData
from .trace_model import DAY_S, NOON_SOD, Bssid, DayTrace, day_slice_start

NIGHT_START_SOD = 21 * 3600
NIGHT_END_SOD = 6 * 3600
# Gaps longer than the sleep-state wake period indicate missing data, not
# dwell, so a single inter-scan credit is capped here.
GAP_CAP_S = 1800
# A noon-to-noon slice holds the whole night as one contiguous range of
# seconds after the slice start: [21:00, 06:00) = [9 h, 18 h).
NIGHT_OPEN_S = NIGHT_START_SOD - NOON_SOD
NIGHT_CLOSE_S = NIGHT_END_SOD + DAY_S - NOON_SOD

_scan_ts = attrgetter("ts")


@dataclass(frozen=True, slots=True)
class HomeVote:
    """Outcome of the daily vote: winner, per-BSSID vote tally, confidence."""

    winner: Bssid
    tally: Mapping[Bssid, int]
    confidence: float


def nightly_dwell(trace: DayTrace) -> dict[Bssid, int]:
    """Reachable seconds per BSSID inside the day's 21:00-06:00 window.

    Presence at scan t_i credits the gap to the next night scan t_{i+1},
    capped at GAP_CAP_S.  BSSIDs never seen at night are absent from the map.
    The scans are time-ordered within one slice, so the night scans are the
    contiguous run found by bisecting the slice's night range.
    """
    scans = trace.scans
    start = day_slice_start(trace.day_id)
    lo = bisect_left(scans, start + NIGHT_OPEN_S, key=_scan_ts)
    hi = bisect_left(scans, start + NIGHT_CLOSE_S, lo, key=_scan_ts)
    night = scans[lo:hi]
    dwell: dict[Bssid, int] = {}
    for cur, nxt in zip(night, night[1:]):
        credit = min(nxt.ts - cur.ts, GAP_CAP_S)
        if credit <= 0:
            continue
        for o in cur.aps:
            dwell[o.bssid] = dwell.get(o.bssid, 0) + credit
    return dwell


def day_vote(trace: DayTrace) -> Bssid | None:
    """The BSSID with the most nightly dwell on this day (smallest on ties), or None."""
    dwell = nightly_dwell(trace)
    if not dwell:
        return None
    top = max(dwell.values())
    return min(b for b, s in dwell.items() if s == top)


def tally_votes(votes: Iterable[Bssid | None]) -> HomeVote:
    """Modal vote over days; overall ties break toward the smallest BSSID.

    Days without a vote are skipped.  Raises NoNightData when no day voted.
    """
    tally: dict[Bssid, int] = {}
    voting_days = 0
    for v in votes:
        if v is None:
            continue
        tally[v] = tally.get(v, 0) + 1
        voting_days += 1
    if voting_days == 0:
        raise NoNightData("no scans inside the 21:00-06:00 window on any day")
    best = max(tally.values())
    winner = min(b for b, n in tally.items() if n == best)
    return HomeVote(
        winner=winner,
        tally=tally,
        confidence=tally[winner] / voting_days,
    )


def window_homes(votes: Sequence[Bssid | None], length: int) -> list[Bssid | None]:
    """Each day's home: the modal vote of the ``length`` read days ending at
    it, or None where none of them voted.  ``votes`` are in day order."""
    homes = []
    for i in range(len(votes)):
        try:
            homes.append(tally_votes(votes[max(0, i - length + 1) : i + 1]).winner)
        except NoNightData:
            homes.append(None)
    return homes


def vote_home_ap(traces: Iterable[DayTrace]) -> HomeVote:
    """Elect the home AP: per-day dwell argmax votes, modal vote wins.

    Ties (within a day or overall) break toward the lexicographically
    smallest BSSID.  Raises NoNightData when no day has any nightly dwell.
    """
    return tally_votes(day_vote(t) for t in traces)
