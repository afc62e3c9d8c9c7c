"""Nearest-neighbor benchmark: match AP environments to historical instants.

Every history point is the set of BSSIDs at one scan, labelled with the
seconds that remained until arrival.  The days come filtered at an RSSI
level by ``trace_model.filter_trace``, the one RSSI filter, so nothing here
compares an RSSI with a level.  A query returns the label of the most
similar point; exact similarity ties are resolved by a seeded random
choice.  The reported cost is the paper's linear scan, one comparison per
history point.  The code scores each distinct fingerprint once instead: a
window's history is indexed by fingerprint once (``NnHistory``), and a
point's similarity is that of its fingerprint, so the answer is the one
the per-point scan gives.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .errors import NoArrival, NoHistory
from .time_map import homeward_leg
from .trace_model import Bssid, DayTrace, ScanRecord


@dataclass(frozen=True, slots=True)
class HistoryPoint:
    """The BSSIDs of one filtered scan, and its seconds-to-home."""

    fingerprint: frozenset[Bssid]
    tl_seconds: int

    def __post_init__(self) -> None:
        if self.tl_seconds < 0:
            raise ValueError("history tl must be >= 0")


def filter_env(scan: ScanRecord) -> frozenset[Bssid]:
    """Fingerprint of a scan: the BSSIDs it lists."""
    return frozenset(o.bssid for o in scan.aps)


def day_history(trace: DayTrace, home: Bssid) -> list[HistoryPoint]:
    """History points from one day's homeward leg, in scan order.

    A day without a home detection contributes nothing; scans whose
    fingerprint is empty are skipped (they carry no environment).
    """
    try:
        leg, arrival_ts = homeward_leg(trace, home)
    except NoArrival:
        return []
    points = []
    for s in leg:
        fp = filter_env(s)
        if fp:
            points.append(HistoryPoint(fingerprint=fp, tl_seconds=arrival_ts - s.ts))
    return points


def build_history(traces: list[DayTrace], home: Bssid) -> NnHistory:
    """History points from the homeward legs of the given days, in day order."""
    return NnHistory(p for trace in traces for p in day_history(trace, home))


class NnHistory(tuple):
    """History points in their original order, indexed by fingerprint.

    ``groups`` pairs each distinct fingerprint, in first-seen order, with
    the ascending positions of its points.  Build one per window and pass
    it to every query of that window.
    """

    groups: tuple[tuple[frozenset[Bssid], tuple[int, ...]], ...]

    def __new__(cls, points: Iterable[HistoryPoint] = ()):
        self = super().__new__(cls, points)
        positions: dict[frozenset[Bssid], list[int]] = {}
        for i, point in enumerate(self):
            found = positions.get(point.fingerprint)
            if found is None:
                positions[point.fingerprint] = [i]
            else:
                found.append(i)
        self.groups = tuple((fp, tuple(pos)) for fp, pos in positions.items())
        return self


def nn_predict(history: NnHistory, query: frozenset[Bssid], seed: int = 0) -> tuple[int, int]:
    """The label of the history point most similar to ``query``, and the
    comparison count: ``(tl_seconds, comparisons)``.

    The comparison count always equals the history size, the cost of the
    paper's linear scan, although each distinct fingerprint is scored only
    once.  Similarity is the Jaccard index of the two BSSID sets, and two
    empty sets score 0.  Ties at the top similarity are broken by a uniform
    random draw from ``seed`` over the tied points in history order, so the
    same seed always picks the same point.
    """
    if not history:
        raise NoHistory("cannot predict from an empty history")
    nq = len(query)
    best_sim = -1.0
    best: list[tuple[int, ...]] = []
    for fingerprint, positions in history.groups:
        inter = len(query & fingerprint)
        union = nq + len(fingerprint) - inter
        sim = inter / union if union else 0.0
        if sim > best_sim:
            best_sim = sim
            best = [positions]
        elif sim == best_sim:
            best.append(positions)
    tied = best[0] if len(best) == 1 else sorted(chain.from_iterable(best))
    position = tied[0] if len(tied) == 1 else random.Random(seed).choice(tied)
    return history[position].tl_seconds, len(history)


def query_seed(master_seed: int, *parts) -> int:
    """Stable per-query tie-break seed derived from the master seed."""
    key = "|".join([str(master_seed), *map(str, parts)])
    return zlib.crc32(key.encode("utf-8"))
