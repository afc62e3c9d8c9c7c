"""Two-level time map: per-day BSSID labels under a 7-day sliding window.

Each day of trace data yields a DayMap labelling every AP seen on the
homeward leg with how long it stayed reachable (tdr) and how many seconds
remained from losing it to detecting the home AP (tl).  A UserProfile keeps
the newest seven DayMaps plus a fallback map of evicted labels; a query
resolves in two probes: pick the day whose label best matches the observed
reachability duration, then read that day's entry for the BSSID.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from datetime import date
from statistics import median
from typing import Iterable, Mapping, Sequence

from .errors import ColdStart, NoArrival, NoNightData, OrderingError, UnknownBssid
from .home_mining import vote_home_ap
from .trace_model import Bssid, DayTrace, ScanRecord

# Nominal in-region scan cadence; an AP's loss is only observable one scan
# period after its last sighting.
SCAN_PERIOD_S = 5
WINDOW_DAYS = 7
# A home re-detection only counts as "coming home" after a real absence;
# shorter gaps are dropped scans, not departures.
HOME_AWAY_MIN_S = 3600


@dataclass(frozen=True, slots=True)
class ApLabel:
    """Seconds-to-home after losing this AP, and its reachable duration."""

    tl_seconds: int
    tdr_seconds: int

    def __post_init__(self) -> None:
        if self.tl_seconds < 0 or self.tdr_seconds < 0:
            raise ValueError("labels are clamped nonnegative")


@dataclass(frozen=True, slots=True)
class DayMap:
    """One day's BSSID -> ApLabel map plus its transport signature.

    The signature is the median reachable duration over route APs (entries
    with tl > 0) and summarizes how fast the user moved that day.
    """

    day_id: date
    entries: Mapping[Bssid, ApLabel]
    signature_s: float


@dataclass(frozen=True, slots=True)
class UserProfile:
    home_bssid: Bssid
    window: tuple[DayMap, ...]
    fallback: Mapping[Bssid, ApLabel]
    built_at: date


@dataclass(frozen=True, slots=True)
class Prediction:
    """Result of a time query: seconds to home plus probe accounting."""

    tl_seconds: int
    source: str
    matched_bssid: Bssid | None
    lookups: int


def homeward_leg(trace: DayTrace, home: Bssid) -> tuple[tuple[ScanRecord, ...], int]:
    """Scans of the final approach home, ending at the home-detection scan.

    The anchor is the day's last home detection following a genuine absence
    (at least HOME_AWAY_MIN_S since the previous sighting; shorter gaps are
    missed scans, not departures).  The leg starts right after that previous
    sighting, or at the first scan when home was never seen before.  Morning
    sightings of route APs fall after the anchor and are therefore excluded.
    Raises NoArrival when home is never seen at all.
    """
    scans = trace.scans
    detect_idx = None
    leg_start_idx = 0
    prev_sight: int | None = None
    for i, s in enumerate(scans):
        if any(o.bssid == home for o in s.aps):
            if prev_sight is None or s.ts - scans[prev_sight].ts >= HOME_AWAY_MIN_S:
                detect_idx = i
                leg_start_idx = 0 if prev_sight is None else prev_sight + 1
            prev_sight = i
    if detect_idx is None:
        raise NoArrival(f"home {home} not detected on {trace.day_id}")
    return scans[leg_start_idx : detect_idx + 1], scans[detect_idx].ts


def build_day_map(trace: DayTrace, home: Bssid, scan_period_s: int = SCAN_PERIOD_S) -> DayMap:
    """Label every AP seen on the homeward leg.

    For AP m:  loss time = last sighting + one scan period (loss is only
    observable at scan granularity), capped at the home-detection instant;
    tdr = loss - first sighting; tl = home detection - loss.  An AP still
    visible when home is detected gets tl 0 and its tdr runs to the
    detection instant.  The home AP itself always carries tl 0.
    """
    leg, home_ts = homeward_leg(trace, home)
    first_seen: dict[Bssid, int] = {}
    last_seen: dict[Bssid, int] = {}
    for s in leg:
        for o in s.aps:
            first_seen.setdefault(o.bssid, s.ts)
            last_seen[o.bssid] = s.ts
    final_bssids = leg[-1].bssids()

    entries: dict[Bssid, ApLabel] = {}
    for b, first in first_seen.items():
        if b in final_bssids:
            lost = home_ts
        else:
            lost = min(last_seen[b] + scan_period_s, home_ts)
        entries[b] = ApLabel(tl_seconds=home_ts - lost, tdr_seconds=lost - first)

    route_tdrs = [lab.tdr_seconds for lab in entries.values() if lab.tl_seconds > 0]
    signature = float(median(route_tdrs)) if route_tdrs else 0.0
    return DayMap(day_id=trace.day_id, entries=entries, signature_s=signature)


def empty_profile(home: Bssid, built_at: date) -> UserProfile:
    return UserProfile(home_bssid=home, window=(), fallback={}, built_at=built_at)


def update_profile(
    profile: UserProfile,
    new_day: DayMap | None,
    all_window_traces: Sequence[DayTrace],
    window_days: int = WINDOW_DAYS,
) -> UserProfile:
    """Fold one day into the profile: append, evict, re-vote, maybe rebuild.

    The new DayMap is appended; when the window overflows, the oldest map is
    evicted and its labels merged into the fallback (newer label wins per
    BSSID).  Home voting then re-runs over ``all_window_traces``; if the
    winner changes, every window day is rebuilt against the new home BSSID
    from those traces, and days where the new home was never detected drop
    out.  ``new_day`` may be None for a day that produced no map against the
    current home (typically right after a relocation); its trace still
    participates in the vote.
    """
    window = list(profile.window)
    fallback = dict(profile.fallback)

    if new_day is not None:
        if window and new_day.day_id <= window[-1].day_id:
            raise OrderingError(
                f"day {new_day.day_id} not later than window tail {window[-1].day_id}"
            )
        window.append(new_day)
        while len(window) > window_days:
            evicted = window.pop(0)
            for b, lab in evicted.entries.items():
                fallback[b] = lab

    home = profile.home_bssid
    try:
        vote = vote_home_ap(all_window_traces)
    except NoNightData:
        vote = None
    if vote is not None and vote.winner != home:
        home = vote.winner
        # Labels anchored to the old home are meaningless now: rebuild the
        # window from the traces and start the fallback over.
        rebuilt = []
        for t in sorted(all_window_traces, key=lambda t: t.day_id)[-window_days:]:
            try:
                rebuilt.append(build_day_map(t, home))
            except NoArrival:
                continue
        window = rebuilt
        fallback = {}

    built_at = window[-1].day_id if window else (
        max(t.day_id for t in all_window_traces) if all_window_traces else profile.built_at
    )
    return UserProfile(
        home_bssid=home,
        window=tuple(window),
        fallback=fallback,
        built_at=built_at,
    )


def build_profile_from_maps(
    home: Bssid,
    maps: Iterable[DayMap],
    window_days: int = WINDOW_DAYS,
) -> UserProfile:
    """Profile from a bag of DayMaps, independent of insertion order."""
    ordered = sorted(maps, key=lambda m: m.day_id)
    profile = empty_profile(home, ordered[0].day_id if ordered else date.min)
    for m in ordered:
        profile = update_profile(profile, m, (), window_days=window_days)
    return profile


def predict_tl(profile: UserProfile, bssid: Bssid, observed_tdr_s: int) -> Prediction:
    """Seconds-to-home for a just-lost AP, in two map probes.

    Among window days containing the BSSID, the day whose stored tdr is
    closest to the observed one wins (most similar transportation; ties go
    to the most recent day).  BSSIDs missing from the whole window fall
    back to the second-choice map.  Refuses to predict while the window
    covers fewer than seven calendar days.
    """
    if observed_tdr_s < 0:
        raise ValueError("observed tdr must be >= 0")
    window = profile.window
    if not window:
        raise ColdStart("profile has no history yet")
    span_days = (window[-1].day_id - window[0].day_id).days + 1
    if span_days < WINDOW_DAYS:
        raise ColdStart(f"profile covers {span_days} day(s); need {WINDOW_DAYS}")

    best: tuple[int, date, ApLabel] | None = None
    for dm in reversed(window):  # newest first, so ties keep the most recent
        lab = dm.entries.get(bssid)
        if lab is None:
            continue
        dist = abs(lab.tdr_seconds - observed_tdr_s)
        if best is None or dist < best[0]:
            best = (dist, dm.day_id, lab)
    if best is not None:
        return Prediction(
            tl_seconds=best[2].tl_seconds,
            source=best[1].isoformat(),
            matched_bssid=bssid,
            lookups=2,
        )
    lab = profile.fallback.get(bssid)
    if lab is not None:
        return Prediction(
            tl_seconds=lab.tl_seconds,
            source="fallback",
            matched_bssid=bssid,
            lookups=3,
        )
    raise UnknownBssid(str(bssid))


# ---------------------------------------------------------------------------
# persistence: one JSON document per device in a profile-store directory

def profile_to_json(profile: UserProfile) -> str:
    doc = {
        "home_bssid": str(profile.home_bssid),
        "built_at": profile.built_at.isoformat(),
        "window": [
            {
                "day_id": dm.day_id.isoformat(),
                "signature_s": dm.signature_s,
                "entries": {
                    str(b): [lab.tl_seconds, lab.tdr_seconds]
                    for b, lab in sorted(dm.entries.items())
                },
            }
            for dm in profile.window
        ],
        "fallback": {
            str(b): [lab.tl_seconds, lab.tdr_seconds]
            for b, lab in sorted(profile.fallback.items())
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def profile_from_json(text: str) -> UserProfile:
    doc = json.loads(text)
    window = tuple(
        DayMap(
            day_id=date.fromisoformat(d["day_id"]),
            entries={
                Bssid(b): ApLabel(int(v[0]), int(v[1])) for b, v in d["entries"].items()
            },
            signature_s=float(d["signature_s"]),
        )
        for d in doc["window"]
    )
    fallback = {
        Bssid(b): ApLabel(int(v[0]), int(v[1])) for b, v in doc["fallback"].items()
    }
    return UserProfile(
        home_bssid=Bssid(doc["home_bssid"]),
        window=window,
        fallback=fallback,
        built_at=date.fromisoformat(doc["built_at"]),
    )


def save_profile(profile: UserProfile, store_dir, device_id: str) -> str:
    """Write ``{device_id}.profile.json`` under the store; returns the path.

    The document goes to a temporary file in the store, is flushed to disk
    and then renamed over the old one, so a crash or failed write leaves
    the previous profile intact.
    """
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, f"{device_id}.profile.json")
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(profile_to_json(profile) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def load_profile(store_dir, device_id: str) -> UserProfile:
    path = os.path.join(store_dir, f"{device_id}.profile.json")
    with open(path, "r", encoding="utf-8") as fh:
        return profile_from_json(fh.read())
