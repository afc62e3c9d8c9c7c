"""Home-AP mining by nightly-dwell voting.

Each day accumulates, per BSSID, the seconds it stayed reachable between
21:00 and 06:00; the day's top BSSID casts one vote (``day_vote``), and the
modal vote across days (``tally_votes``) is declared the home AP.

Two rules for the home on day d stay apart on purpose.  A prediction on d
uses the W calendar days before d and never d's own night, which comes
after the arrival it predicts (``days_before``: ``evaluate``, ``predict
--method nn``).  A fold uses the W read days ending at d: ``update_profile``
for build-profile and the phone, voting only the days whose ballot its
profile lacks, and ``window_homes`` for detect-door, which keeps no profile.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Mapping, Sequence

from .errors import NoNightData
from .trace_model import DAY_S, NOON_SOD, Bssid, DayTrace, RenderedOnRead, day_slice_start

NIGHT_START_SOD = 21 * 3600
NIGHT_END_SOD = 6 * 3600
# Gaps longer than the sleep-state wake period indicate missing data, not
# dwell, so a single inter-scan credit is capped here.
GAP_CAP_S = 1800
# A noon-to-noon slice holds the whole night as one contiguous range of
# seconds after the slice start: [21:00, 06:00) = [9 h, 18 h).
NIGHT_OPEN_S = NIGHT_START_SOD - NOON_SOD
NIGHT_CLOSE_S = NIGHT_END_SOD + DAY_S - NOON_SOD


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
    contiguous run found by bisecting the day's stamps over the slice's
    night range.  Credits come from the stamps too, so only the scans that
    earn a credit are read, and the vote reads only which BSSIDs each lists:
    on a simulated day it renders no scan (``RenderedOnRead.listed``).
    """
    stamps, scans = trace.scan_ts, trace.scans
    start = day_slice_start(trace.day_id)
    lo = bisect_left(stamps, start + NIGHT_OPEN_S)
    hi = bisect_left(stamps, start + NIGHT_CLOSE_S, lo)
    listed = scans.listed if isinstance(scans, RenderedOnRead) else None
    dwell: dict[Bssid, int] = {}
    get = dwell.get
    for i in range(lo, hi - 1):
        credit = stamps[i + 1] - stamps[i]
        if credit <= 0:
            continue
        credit = GAP_CAP_S if credit > GAP_CAP_S else credit
        if listed is None:
            for o in scans[i].aps:
                dwell[o.bssid] = get(o.bssid, 0) + credit
        else:
            for b in listed(i):
                dwell[b] = get(b, 0) + credit
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
    for v in votes:
        if v is None:
            continue
        tally[v] = tally.get(v, 0) + 1
    if not tally:
        raise NoNightData("no scans inside the 21:00-06:00 window on any day")
    best = max(tally.values())
    winner = min(b for b, n in tally.items() if n == best)
    return HomeVote(
        winner=winner,
        tally=tally,
        confidence=best / sum(tally.values()),
    )


def window_homes(votes: Sequence[Bssid | None], length: int) -> list[Bssid | None]:
    """Each day's home: the modal vote of the ``length`` read days ending at
    it, or None where none of them voted.  ``votes`` are in day order.
    Raises NoNightData, as ``tally_votes`` does, when no day voted."""
    tally_votes(votes)
    homes = []
    for i in range(len(votes)):
        try:
            homes.append(tally_votes(votes[max(0, i - length + 1) : i + 1]).winner)
        except NoNightData:
            homes.append(None)
    return homes


def days_before(days: Sequence, day_id: date, length: int) -> list:
    """The days (anything with a ``day_id``) in the ``length`` days before ``day_id``."""
    return [d for d in days if 0 < (day_id - d.day_id).days <= length]


def vote_home_ap(traces: Iterable[DayTrace]) -> HomeVote:
    """Elect the home AP: per-day dwell argmax votes, modal vote wins.

    Ties (within a day or overall) break toward the lexicographically
    smallest BSSID.  Raises NoNightData when no day has any nightly dwell.
    """
    return tally_votes(day_vote(t) for t in traces)
