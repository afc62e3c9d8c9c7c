"""Nearest-neighbor benchmark: match AP environments to historical instants.

Every history point is the set of BSSIDs above an RSSI threshold at one
scan, labelled with the seconds that remained until arrival.  A query scans
the whole history (linear cost, by design) and returns the label of the
most similar point; exact similarity ties are resolved by a seeded random
choice.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from .errors import NoArrival, NoHistory
from .time_map import Prediction, homeward_leg
from .trace_model import Bssid, DayTrace, ScanRecord


@dataclass(frozen=True, slots=True)
class HistoryPoint:
    """The BSSIDs surviving the RSSI filter at one scan, and its seconds-to-home."""

    fingerprint: frozenset[Bssid]
    tl_seconds: int

    def __post_init__(self) -> None:
        if self.tl_seconds < 0:
            raise ValueError("history tl must be >= 0")


def filter_env(scan: ScanRecord, threshold_dbm: int | None) -> frozenset[Bssid]:
    """Fingerprint of a scan: BSSIDs at or above the threshold (None keeps all)."""
    if threshold_dbm is None:
        return frozenset(o.bssid for o in scan.aps)
    return frozenset(o.bssid for o in scan.aps if o.rssi_dbm >= threshold_dbm)


def env_similarity(a: frozenset[Bssid], b: frozenset[Bssid]) -> float:
    """Jaccard index of the two BSSID sets; two empty sets score 0."""
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def day_history(trace: DayTrace, home: Bssid, threshold_dbm: int | None) -> list[HistoryPoint]:
    """History points from one day's homeward leg, in scan order.

    A day without a home detection contributes nothing; scans whose filtered
    fingerprint is empty are skipped (they carry no environment).
    """
    try:
        leg, arrival_ts = homeward_leg(trace, home)
    except NoArrival:
        return []
    points = []
    for s in leg:
        fp = filter_env(s, threshold_dbm)
        if fp:
            points.append(HistoryPoint(fingerprint=fp, tl_seconds=arrival_ts - s.ts))
    return points


def build_history(
    traces: list[DayTrace],
    home: Bssid,
    threshold_dbm: int | None,
) -> list[HistoryPoint]:
    """History points from the homeward legs of the given days, in day order."""
    points: list[HistoryPoint] = []
    for trace in traces:
        points.extend(day_history(trace, home, threshold_dbm))
    return points


def nn_predict(
    history: list[HistoryPoint],
    query: frozenset[Bssid],
    seed: int = 0,
) -> tuple[Prediction, int]:
    """Scan all history points and return the best match's label.

    The comparison count always equals the history size.  Ties at the top
    similarity are broken by a uniform random draw from ``seed``, so the
    same seed always picks the same point.  Similarity is the Jaccard index
    of ``env_similarity``, inlined here because this loop is the hot path.
    """
    if not history:
        raise NoHistory("cannot predict from an empty history")
    nq = len(query)
    best_sim = -1.0
    tied: list[HistoryPoint] = []
    for point in history:
        b = point.fingerprint
        inter = len(query & b)
        union = nq + len(b) - inter
        sim = inter / union if union else 0.0
        if sim > best_sim:
            best_sim = sim
            tied = [point]
        elif sim == best_sim:
            tied.append(point)
    if len(tied) == 1:
        choice = tied[0]
    else:
        choice = random.Random(seed).choice(tied)
    prediction = Prediction(
        tl_seconds=choice.tl_seconds,
        source="nn",
        matched_bssid=None,
        lookups=len(history),
    )
    return prediction, len(history)


def query_seed(master_seed: int, *parts) -> int:
    """Stable per-query tie-break seed derived from the master seed."""
    key = "|".join([str(master_seed), *map(str, parts)])
    return zlib.crc32(key.encode("utf-8"))
