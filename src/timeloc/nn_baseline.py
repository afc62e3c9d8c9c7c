"""Nearest-neighbor benchmark: match AP environments to historical instants.

Every history point is the set of BSSIDs above an RSSI threshold at one
scan, labelled with the seconds that remained until arrival.  A query
returns the label of the most similar point; exact similarity ties are
resolved by a seeded random choice.  The reported cost is the paper's
linear scan, one comparison per history point.  The code scores each
distinct fingerprint once instead: a window's history is indexed by
fingerprint once (``NnHistory``), and a point's similarity is that of its
fingerprint, so the answer is the one the per-point scan gives.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

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


def nn_predict(
    history: Sequence[HistoryPoint],
    query: frozenset[Bssid],
    seed: int = 0,
) -> tuple[Prediction, int]:
    """Return the label of the history point most similar to ``query``.

    The comparison count always equals the history size, the cost of the
    paper's linear scan, although each distinct fingerprint is scored only
    once.  Ties at the top similarity are broken by a uniform random draw
    from ``seed`` over the tied points in history order, so the same seed
    always picks the same point.  Similarity is the Jaccard index of
    ``env_similarity``, inlined here because this loop is the hot path.  A
    history that is not an ``NnHistory`` is indexed on entry.
    """
    if not isinstance(history, NnHistory):
        history = NnHistory(history)
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
    prediction = Prediction(
        tl_seconds=history[position].tl_seconds,
        source="nn",
        matched_bssid=None,
        lookups=len(history),
    )
    return prediction, len(history)


def query_seed(master_seed: int, *parts) -> int:
    """Stable per-query tie-break seed derived from the master seed."""
    key = "|".join([str(master_seed), *map(str, parts)])
    return zlib.crc32(key.encode("utf-8"))
