"""Two-level time map: per-day BSSID labels under a one-week sliding window.

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
import math
import os
from dataclasses import dataclass, field, replace
from datetime import date
from json.encoder import encode_basestring_ascii as _json_str
from statistics import median
from typing import Iterable, Mapping, Sequence

from .errors import (
    ColdStart,
    NoNightData,
    OrderingError,
    ProfileFormatError,
    TimelocError,
    UnknownBssid,
)
from .home_mining import day_vote, tally_votes
from .trace_model import SCAN_PERIOD_S, Bssid, DayTrace, ScanRecord, _json_float, _SeenBssids

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
    """``ballots`` memoizes ``day_vote`` of each window day's trace; ``==`` ignores it."""

    home_bssid: Bssid
    window: tuple[DayMap, ...]
    fallback: Mapping[Bssid, ApLabel]
    built_at: date
    ballots: Mapping[date, Bssid | None] = field(default_factory=dict, compare=False)


@dataclass(frozen=True, slots=True)
class Prediction:
    """Result of a time query: seconds to home plus probe accounting."""

    tl_seconds: int
    source: str
    lookups: int


def leg_losses(
    trace: DayTrace, home: Bssid
) -> tuple[tuple[ScanRecord, ...], int | None, dict[Bssid, tuple[int, int, int | None]]]:
    """The homeward leg, its home-detection instant, and each leg AP's
    (first sighting, last sighting, observed loss), keyed in first-seen order.

    The leg is the scans of the final approach home.  It ends at the day's
    last home detection following a genuine absence (at least
    HOME_AWAY_MIN_S since the previous sighting; shorter gaps are missed
    scans, not departures), and starts right after that previous sighting,
    or at the first scan when home was never seen before.  Morning
    sightings of route APs fall after it and are therefore excluded.  A day
    where home is never seen has an empty leg: ``((), None, {})``.

    A loss is only observable at scan granularity: one scan period after the
    last sighting.  It is None when that instant falls after home detection,
    which covers every AP still in the detection scan (the home AP always
    is), since that scan is its last sighting.
    """
    stamps, scans = trace.scan_ts, trace.scans
    # A scan lists each BSSID at most once, so this is one index per sighting.
    sightings = [i for i, s in enumerate(scans) for o in s.aps if o.bssid == home]
    if not sightings:
        return (), None, {}
    detect_idx, leg_start_idx = sightings[0], 0
    for prev, i in zip(sightings, sightings[1:]):
        if stamps[i] - stamps[prev] >= HOME_AWAY_MIN_S:
            detect_idx, leg_start_idx = i, prev + 1
    leg, home_ts = scans[leg_start_idx : detect_idx + 1], stamps[detect_idx]
    first_seen: dict[Bssid, int] = {}
    last_seen: dict[Bssid, int] = {}
    for s in leg:
        for o in s.aps:
            first_seen.setdefault(o.bssid, s.ts)
            last_seen[o.bssid] = s.ts
    losses = {}
    for b, first in first_seen.items():
        lost = last_seen[b] + SCAN_PERIOD_S
        losses[b] = (first, last_seen[b], lost if lost <= home_ts else None)
    return leg, home_ts, losses


def build_day_map(trace: DayTrace, home: Bssid) -> DayMap | None:
    """Label every AP seen on the homeward leg; None when home is never seen.

    For AP m:  tdr = loss - first sighting; tl = home detection - loss,
    where an AP without an observed loss (see ``leg_losses``) is lost at the
    home-detection instant and so gets tl 0.
    """
    return leg_day_map(trace.day_id, leg_losses(trace, home))


def leg_day_map(day_id: date, day_leg: tuple) -> DayMap | None:
    """``build_day_map`` of day ``day_id`` from its ``leg_losses``."""
    _, home_ts, losses = day_leg
    if home_ts is None:
        return None
    entries: dict[Bssid, ApLabel] = {}
    for b, (first, _, lost) in losses.items():
        if lost is None:
            lost = home_ts
        entries[b] = ApLabel(tl_seconds=home_ts - lost, tdr_seconds=lost - first)

    route_tdrs = [lab.tdr_seconds for lab in entries.values() if lab.tl_seconds > 0]
    signature = float(median(route_tdrs)) if route_tdrs else 0.0
    return DayMap(day_id=day_id, entries=entries, signature_s=signature)


def empty_profile(home: Bssid, built_at: date) -> UserProfile:
    return UserProfile(home_bssid=home, window=(), fallback={}, built_at=built_at)


def fold_day(
    profile: UserProfile,
    new_day: DayMap | None,
    home: Bssid,
    window_traces: Sequence[DayTrace],
    window_days: int = WINDOW_DAYS,
) -> UserProfile:
    """Fold one day into the profile under ``home``: append, evict, maybe rebuild.

    The new DayMap is appended; when the window overflows, the oldest map is
    evicted and its labels merged into the fallback (newer label wins per
    BSSID).  If ``home`` is not the profile's, the window is rebuilt against
    it from the newest ``window_days`` of ``window_traces``, days where it
    was never detected drop out, and the fallback starts over.  ``new_day``
    may be None for a day that produced no map against the current home
    (typically right after a relocation).  Raises ValueError if
    ``window_days`` < 1.
    """
    if window_days < 1:
        raise ValueError(f"window_days must be >= 1, got {window_days}")
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

    if home != profile.home_bssid:
        # Labels anchored to the old home are meaningless now: rebuild the
        # window from the traces and start the fallback over.
        recent = sorted(window_traces, key=lambda t: t.day_id)[-window_days:]
        maps = (build_day_map(t, home) for t in recent)
        window = [m for m in maps if m is not None]
        fallback = {}

    built_at = window[-1].day_id if window else (
        max(t.day_id for t in window_traces) if window_traces else profile.built_at
    )
    return UserProfile(
        home_bssid=home,
        window=tuple(window),
        fallback=fallback,
        built_at=built_at,
    )


def update_profile(
    profile: UserProfile,
    new_day: DayMap | None,
    all_window_traces: Sequence[DayTrace],
    window_days: int = WINDOW_DAYS,
) -> UserProfile:
    """``fold_day`` under the home voted over the traces, or the profile's if none voted.

    A trace votes the profile's ballot for its day when there is one (a
    trace for such a day is taken to be that day's trace), else its
    ``day_vote``.  The result holds the ballots of ``all_window_traces``.
    """
    held = profile.ballots
    votes = [held[t.day_id] if t.day_id in held else day_vote(t) for t in all_window_traces]
    home = profile.home_bssid
    with contextlib.suppress(NoNightData):
        home = tally_votes(votes).winner
    folded = fold_day(profile, new_day, home, all_window_traces, window_days)
    return replace(folded, ballots=dict(zip((t.day_id for t in all_window_traces), votes)))


def build_profile_from_maps(home: Bssid, maps: Iterable[DayMap]) -> UserProfile:
    """Profile from a bag of DayMaps, independent of insertion order."""
    ordered = sorted(maps, key=lambda m: m.day_id)
    profile = empty_profile(home, ordered[0].day_id if ordered else date.min)
    for m in ordered:
        profile = fold_day(profile, m, home, ())
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
            lookups=2,
        )
    lab = profile.fallback.get(bssid)
    if lab is not None:
        return Prediction(
            tl_seconds=lab.tl_seconds,
            source="fallback",
            lookups=3,
        )
    raise UnknownBssid(str(bssid))


# ---------------------------------------------------------------------------
# persistence: one JSON document per device in a profile-store directory

def _labels_json(labels: Mapping[Bssid, ApLabel], indent: str) -> str:
    """A BSSID -> [tl_seconds, tdr_seconds] object whose closing brace sits at ``indent``."""
    if not labels:
        return "{}"
    inner = indent + "  "
    items = ",\n".join(
        f"{inner}{_json_str(b)}: [\n"
        f"{inner}  {lab.tl_seconds},\n{inner}  {lab.tdr_seconds}\n{inner}]"
        for b, lab in sorted(labels.items())
    )
    return f"{{\n{items}\n{indent}}}"


def profile_to_json(profile: UserProfile) -> str:
    """The profile document, 2-space indented with sorted keys; ``ballots`` only when held.

    The text is exactly what ``json.dumps(doc, indent=2, sort_keys=True)``
    writes for the document, built directly because the indenting encoder
    runs in pure Python.
    """
    days = ",\n".join(
        f'    {{\n      "day_id": "{dm.day_id.isoformat()}",\n'
        f'      "entries": {_labels_json(dm.entries, "      ")},\n'
        f'      "signature_s": {_json_float(dm.signature_s)}\n    }}'
        for dm in profile.window
    )
    window = f"[\n{days}\n  ]" if profile.window else "[]"
    nights = ",\n".join(
        f'    "{d.isoformat()}": {"null" if b is None else _json_str(b)}'
        for d, b in sorted(profile.ballots.items())
    )
    ballots = f'\n  "ballots": {{\n{nights}\n  }},' if profile.ballots else ""
    return (
        f'{{{ballots}\n  "built_at": "{profile.built_at.isoformat()}",\n'
        f'  "fallback": {_labels_json(profile.fallback, "  ")},\n'
        f'  "home_bssid": {_json_str(profile.home_bssid)},\n'
        f'  "window": {window}\n}}'
    )


_new_label, _set_tl, _set_tdr = ApLabel.__new__, ApLabel.tl_seconds.__set__, ApLabel.tdr_seconds.__set__


def _labels_from_json(doc_labels, bssids: _SeenBssids) -> dict[Bssid, ApLabel]:
    """A BSSID -> ApLabel map from its document form, each label an array of
    exactly two nonnegative integers; having checked that itself, it sets
    each label's slots without the frozen ``ApLabel.__init__``."""
    labels = {}
    for b, value in doc_labels.items():
        if not (type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is int
                and value[0] >= 0 and value[1] >= 0):
            raise ValueError(f"a label must be an array of two nonnegative integers, not {value!r}")
        labels[bssids[b]] = label = _new_label(ApLabel)
        _set_tl(label, value[0])
        _set_tdr(label, value[1])
    return labels


def _number_from_json(value) -> float:
    """A float from a finite JSON number; strings, booleans, NaN and the
    infinities are refused."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, not {value!r}")
    return float(value)


def profile_from_json(text: str) -> UserProfile:
    """Read a profile document.

    Raises ProfileFormatError for invalid JSON, a missing key, a value of
    the wrong type or range or window days that are not strictly
    increasing, and TraceValidationError for an invalid BSSID.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"profile is not valid JSON ({exc})") from exc
    # Map keys are always strings: validate each distinct one once per call.
    bssids = _SeenBssids()
    try:
        window = tuple(
            DayMap(
                day_id=date.fromisoformat(d["day_id"]),
                entries=_labels_from_json(d["entries"], bssids),
                signature_s=_number_from_json(d["signature_s"]),
            )
            for d in doc["window"]
        )
        if any(earlier.day_id >= later.day_id for earlier, later in zip(window, window[1:])):
            raise ValueError("window days are not strictly increasing")
        fallback = _labels_from_json(doc["fallback"], bssids)
        ballots = {
            date.fromisoformat(d): None if b is None else bssids[b]
            for d, b in doc.get("ballots", {}).items()
        }
        return UserProfile(
            home_bssid=Bssid(doc["home_bssid"]),
            window=window,
            fallback=fallback,
            built_at=date.fromisoformat(doc["built_at"]),
            ballots=ballots,
        )
    except KeyError as exc:
        raise ProfileFormatError(f"profile lacks the key {exc}") from exc
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ProfileFormatError(f"profile has an invalid value ({exc})") from exc


def _profile_path(store_dir, device_id: str) -> str:
    """The store file of one device: ``{device_id}.profile.json``.

    Raises TimelocError for an empty id or one holding a path separator,
    which would name a file outside the store or in a directory under it.
    """
    if not device_id or os.sep in device_id or (os.altsep and os.altsep in device_id):
        raise TimelocError(f"invalid device id {device_id!r}: it must be a plain file name")
    return os.path.join(store_dir, f"{device_id}.profile.json")


def save_profile(profile: UserProfile, store_dir, device_id: str) -> str:
    """Write ``{device_id}.profile.json`` under the store; returns the path.

    The document goes to a temporary file in the store, is flushed to disk
    and then renamed over the old one, so a crash or failed write leaves
    the previous profile intact.  Raises TimelocError for a device id that
    is not a plain file name, a store that is not a directory or a profile
    path that is a directory, before anything is written.
    """
    path = _profile_path(store_dir, device_id)
    if os.path.isdir(path):
        raise TimelocError(f"cannot write profile {path} (Is a directory)")
    try:
        os.makedirs(store_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise TimelocError(f"profile store {str(store_dir)!r} is not a directory") from None
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
    """Read ``{device_id}.profile.json`` from the store.

    Raises TimelocError for a device id that is not a plain file name or
    has no profile there, for a store that is not a directory and for a
    file that cannot be read, and ProfileFormatError when the file is not
    a readable profile.
    """
    path = _profile_path(store_dir, device_id)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise TimelocError(
            f"no profile for device {device_id!r} in store {str(store_dir)!r}"
        ) from None
    except NotADirectoryError:
        raise TimelocError(f"profile store {str(store_dir)!r} is not a directory") from None
    except OSError as exc:
        raise TimelocError(f"cannot read profile {path} ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(f"profile {path} is not UTF-8 ({exc.reason})") from exc
    return profile_from_json(text)
