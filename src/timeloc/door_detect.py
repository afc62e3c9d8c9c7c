"""Door-opening detection from three joint signal conditions.

A door event is emitted where, simultaneously, (1) the home AP is visible
(connection not required), (2) its RSSI fluctuates while the accelerometer
says the user is standing still, and (3) the scan sits next to a peak in
the number of visible APs.  The thresholds below are fixed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from statistics import pvariance
from typing import Sequence

from .trace_model import AccelSample, Bssid, DayTrace, ScanRecord

RSSI_WINDOW_SCANS = 5
RSSI_VAR_THRESHOLD_DB2 = 9.0
ACCEL_WINDOW_S = 3
ACCEL_VAR_THRESHOLD = 0.5
COUNT_PEAK_DELTA = 2
COUNT_NEIGHBORHOOD_SCANS = 4
PEAK_REACH_SCANS = 2
MERGE_S = 30


@dataclass(frozen=True, slots=True)
class DoorEvent:
    ts: int


def is_fluctuating(window: Sequence[int]) -> bool:
    """True when at least 2 RSSI values have a sample variance of at least
    RSSI_VAR_THRESHOLD_DB2, tested exactly in integers; a shorter window fails."""
    n, total = len(window), sum(window)
    spread = n * sum([x * x for x in window]) - total * total  # n * (n - 1) * variance
    return n >= 2 and spread >= RSSI_VAR_THRESHOLD_DB2 * n * (n - 1)


def is_standing(samples: Sequence[AccelSample]) -> bool:
    """True when at least 3 samples have a magnitude variance below
    ACCEL_VAR_THRESHOLD; a shorter window fails.

    A filtered predicate (Shewchuk 1997): the float variance v decides
    unless |v - threshold| <= 1e-12 * (n + sum(x^2)), where ``pvariance``
    does.  With unit roundoff u, the mean's rounding adds at most
    (n*u)^2 * sum(x^2) / n to v, the other roundings scale each term by at
    most 1 +- (n+3)*u, and the variance is at most sum(x^2) / n: under the
    bound for n < 1e15.  The n term covers underflow; an overflow falls back.
    """
    n = len(samples)
    if n < 3:
        return False
    mags = [s.magnitude_mps2 for s in samples]
    mean = sum(mags) / n
    v = sum([(x - mean) * (x - mean) for x in mags]) / n
    if abs(v - ACCEL_VAR_THRESHOLD) > 1e-12 * (n + sum([x * x for x in mags])):
        return v < ACCEL_VAR_THRESHOLD
    return pvariance(mags) < ACCEL_VAR_THRESHOLD


def ap_count_peak(counts: Sequence[int]) -> list[int]:
    """Indices of the AP counts that exceed both flanking neighborhood means.

    A point is a peak when its count is at least COUNT_PEAK_DELTA above the
    mean of the COUNT_NEIGHBORHOOD_SCANS points on each side; edges without
    a full neighborhood never qualify.  Counts are integers, so the test
    runs exactly on n * count against the neighborhood sums.
    """
    n = COUNT_NEIGHBORHOOD_SCANS
    prefix = [0, *accumulate(counts)]  # prefix[k] = sum(counts[:k])
    need = COUNT_PEAK_DELTA * n
    peaks = []
    for i in range(n, len(counts) - n):
        c = n * counts[i]
        left = prefix[i] - prefix[i - n]
        right = prefix[i + 1 + n] - prefix[i + 1]
        if c - left >= need and c - right >= need:
            peaks.append(i)
    return peaks


def _near_peak(scans: Sequence[ScanRecord]) -> set[int]:
    """Indices of the scans within PEAK_REACH_SCANS of an AP-count peak."""
    return {
        j
        for i in ap_count_peak([len(s.aps) for s in scans])
        for j in range(i - PEAK_REACH_SCANS, i + PEAK_REACH_SCANS + 1)
    }


def _standing_at(trace: DayTrace, ts: int) -> bool:
    """Whether the time-ordered samples within ACCEL_WINDOW_S / 2 of ts say standing."""
    half = ACCEL_WINDOW_S / 2.0
    stamps = trace.accel_ts
    lo = bisect_left(stamps, ts - half)
    return is_standing(trace.accel[lo : bisect_right(stamps, ts + half, lo)])


def detect_door_events(trace: DayTrace, home: Bssid) -> list[DoorEvent]:
    """All door-opening events of one day, merged within MERGE_S seconds.

    Every scan that sees home adds its RSSI to the fluctuation history; a
    scan is an event candidate when it is near a count peak, the last
    RSSI_WINDOW_SCANS home readings fluctuate and the user stands still.
    No events is a valid result; a short window fails its condition.
    """
    near_peak = _near_peak(trace.scans)
    home_rssi_hist: list[int] = []
    events: list[DoorEvent] = []
    for i, s in enumerate(trace.scans):
        rssi = s.rssi_of(home)
        if rssi is None:
            continue
        home_rssi_hist.append(rssi)
        if i not in near_peak or not is_fluctuating(home_rssi_hist[-RSSI_WINDOW_SCANS:]):
            continue
        if not _standing_at(trace, s.ts):
            continue
        if events and s.ts - events[-1].ts < MERGE_S:
            continue  # merged into the earliest event of the burst
        events.append(DoorEvent(s.ts))
    return events
