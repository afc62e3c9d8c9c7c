"""Canonical data model for WiFi scan traces.

Every other module consumes the immutable value types defined here:
BSSID identifiers, per-AP observations, GPS fixes, accelerometer samples,
scan records and noon-to-noon day slices.  The module also owns the JSONL
trace file format, day slicing, and great-circle distance.

All types are immutable (frozen dataclasses, and a ``str`` subclass for
BSSIDs), safe to share across threads.  A simulated day's scans and samples
are a RenderedOnRead: each item is rendered when it is first read, and a
whole read swaps the finished tuple into the DayTrace.  A read item never
changes, and two threads racing on one index render equal items.  Which
BSSIDs a scan lists can be read without rendering it (``listed``).
"""

from __future__ import annotations

import json
import math
import re
from collections import abc
from dataclasses import dataclass, field
from datetime import date, datetime, time, timezone
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import OrderingError, TraceParseError, TraceValidationError

EARTH_RADIUS_M = 6_371_000.0
DAY_S = 86_400
# The phone's in-region WiFi scan period: the sensing machine's cadence
# inside the home geofence, the rendered commute's, and so the resolution of
# every label, since a loss is observable one period after the last sighting.
SCAN_PERIOD_S = 5
# Day slices run from 12:00 to the next 12:00 so the 21:00-06:00 night
# window never straddles a slice boundary.
NOON_SOD = DAY_S // 2
RSSI_MIN_DBM, RSSI_MAX_DBM = -120, 0  # the levels an observation may hold

_BSSID_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")


class Bssid(str):
    """48-bit AP identifier, canonicalized to lowercase colon-separated hex.

    Accepts uppercase and hyphen-separated input; anything else is rejected.
    A Bssid is the canonical string itself, so equality, hashing and
    ordering run on the canonical form at C speed.  ``Bssid(b)`` hands an
    existing Bssid back unchanged.
    """

    __slots__ = ()

    def __new__(cls, value):
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise TraceValidationError(f"invalid BSSID: {value!r}")
        canon = value.strip().lower().replace("-", ":")
        if not _BSSID_RE.match(canon):
            raise TraceValidationError(f"invalid BSSID: {value!r}")
        return super().__new__(cls, canon)

    def __repr__(self) -> str:
        return f"Bssid({str.__repr__(self)})"


@dataclass(frozen=True, slots=True)
class ApObservation:
    """One AP sighting inside a scan: identifier plus signal strength."""

    bssid: Bssid
    rssi_dbm: int

    def __post_init__(self) -> None:
        if not RSSI_MIN_DBM <= self.rssi_dbm <= RSSI_MAX_DBM:
            raise TraceValidationError(
                f"rssi {self.rssi_dbm} dBm outside [{RSSI_MIN_DBM}, {RSSI_MAX_DBM}] for {self.bssid}"
            )


@dataclass(frozen=True, slots=True)
class GpsFix:
    lat_deg: float
    lon_deg: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat_deg <= 90.0:
            raise TraceValidationError(f"latitude {self.lat_deg} outside [-90, 90]")
        if not -180.0 <= self.lon_deg <= 180.0:
            raise TraceValidationError(f"longitude {self.lon_deg} outside [-180, 180]")


@dataclass(frozen=True, slots=True)
class AccelSample:
    """Accelerometer magnitude at one instant (epoch seconds)."""

    ts: int
    magnitude_mps2: float

    def __post_init__(self) -> None:
        if not 0 <= self.magnitude_mps2 < math.inf:  # false for NaN too
            what = ">= 0" if self.magnitude_mps2 < 0 else "finite"
            raise TraceValidationError(f"accelerometer magnitude must be {what}")


_bssid_of = attrgetter("bssid")
ts_of = attrgetter("ts")  # the stamp of a scan or a sample


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """One WiFi scan: timestamp, optional GPS fix and connection, AP list."""

    ts: int
    gps: GpsFix | None
    connected: Bssid | None
    aps: tuple[ApObservation, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.aps, tuple):
            object.__setattr__(self, "aps", tuple(self.aps))
        seen = set()
        for o in self.aps:
            if o.bssid in seen:
                raise TraceValidationError(f"duplicate BSSID {o.bssid} at ts {self.ts}")
            seen.add(o.bssid)
        if self.connected is not None and self.connected not in seen:
            raise TraceValidationError(
                f"connected BSSID {self.connected} not among scanned APs at ts {self.ts}"
            )

    @classmethod
    def recorded(cls, ts: int, gps: GpsFix | None, connected: Bssid | None, aps: tuple) -> ScanRecord:
        """The scan a phone records: a connection to an AP it does not list is dropped."""
        listed = connected is not None and connected in map(_bssid_of, aps)
        return cls(ts, gps, connected if listed else None, aps)

    def rssi_of(self, bssid: Bssid) -> int | None:
        for o in self.aps:
            if o.bssid == bssid:
                return o.rssi_dbm
        return None


class RenderedOnRead(abc.Sequence):
    """Items made by ``render(instant)`` on first read, one per sorted instant:
    ``seq[i]`` makes and keeps item i alone, and any other read makes the rest
    and hands the finished tuple to each DayTrace holding the sequence.  A
    sequence of scans that ``listed`` reads needs ``listed_at(instant)``,
    the set of BSSIDs the scan at that instant lists."""

    __slots__ = ("instants", "_render", "_listed_at", "_items", "_owners")

    def __init__(self, instants: list[int], render, listed_at=None):
        self.instants, self._render, self._listed_at = instants, render, listed_at
        self._owners, self._items = [], [None] * len(instants)  # (DayTrace, field) pairs; a list, later a tuple

    def listed(self, i) -> Iterable[Bssid]:
        """The BSSIDs scan i lists: read from the scan once it is rendered,
        else from ``listed_at``, which renders and stores nothing."""
        if (item := self._items[i]) is None:
            return self._listed_at(self.instants[i])
        return map(_bssid_of, item.aps)

    def __len__(self) -> int:
        return len(self.instants)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._whole()[i]
        items = self._items  # a reader racing _whole still stores into the list
        if (item := items[i]) is None:
            item = items[i] = self._render(self.instants[i])
        return item

    def __iter__(self):
        return iter(self._whole())

    def __eq__(self, other) -> bool:
        return self._whole() == other  # a tuple hands a RenderedOnRead back to its __eq__

    def __hash__(self) -> int:
        return hash(self._whole())

    def _whole(self) -> tuple:
        if type(self._items) is list:
            self._items = tuple([self._render(t) if it is None else it for it, t in zip(self._items, self.instants)])
            for owner, field in self._owners:
                object.__setattr__(owner, field, self._items)
        return self._items


@dataclass(frozen=True, slots=True)
class DayTrace:
    """All scans and accelerometer samples of one noon-to-noon slice.

    ``scan_ts`` and ``accel_ts`` hold the items' stamps in order, so a
    reader can bisect by time without reading, or rendering, an item.  They
    are derived, so they take no part in equality, hashing or ``repr``.
    """

    day_id: date
    scans: tuple[ScanRecord, ...] | RenderedOnRead
    accel: tuple[AccelSample, ...] | RenderedOnRead
    scan_ts: list[int] = field(init=False, compare=False, repr=False)
    accel_ts: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        start = day_slice_start(self.day_id)
        fields = (("scans", "scan_ts", "scan"), ("accel", "accel_ts", "accel sample"))
        for name, stamps_name, what in fields:
            items = getattr(self, name)
            lazy = isinstance(items, RenderedOnRead)
            if not (lazy or isinstance(items, tuple)):
                object.__setattr__(self, name, items := tuple(items))
            stamps = items.instants if lazy else list(map(ts_of, items))
            _check_time_order(stamps, f"{what}s")
            for ts in stamps[:1] + stamps[-1:]:  # in time order, so the ends bound the rest
                if not start <= ts < start + DAY_S:
                    raise TraceValidationError(f"{what} ts {ts} outside slice {self.day_id}")
            object.__setattr__(self, stamps_name, stamps)
            if lazy:
                items._owners.append((self, name))


# ---------------------------------------------------------------------------
# day slicing

def _check_time_order(stamps: Iterable[int], what: str) -> None:
    """Raise OrderingError at the first stamp earlier than the one before."""
    prev = -math.inf
    for ts in stamps:
        if ts < prev:
            raise OrderingError(f"{what} not sorted by ts (around {ts})")
        prev = ts


def day_slice_start(day_id: date) -> int:
    """Epoch second at which the slice labelled ``day_id`` begins (12:00 UTC)."""
    return int(datetime.combine(day_id, time(12, 0), tzinfo=timezone.utc).timestamp())


def read_date(text: str) -> date:
    """The date of YYYY-MM-DD ``text``; ValueError for any other text, 20240101 included."""
    if (day := date.fromisoformat(text)).isoformat() != text:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return day


def day_id_for_ts(ts: int) -> date:
    """Slice label for an epoch second: the date whose noon starts the slice.

    Raises TraceValidationError for a second outside the supported dates.
    """
    try:
        return datetime.fromtimestamp(ts - NOON_SOD, tz=timezone.utc).date()
    except (OverflowError, OSError, ValueError):
        raise TraceValidationError(f"timestamp {ts} falls outside the supported dates") from None


def slice_into_days(
    records: Sequence[ScanRecord],
    accel: Sequence[AccelSample] = (),
) -> list[DayTrace]:
    """Partition time-ordered records into noon-to-noon DayTraces.

    A day is a slice that holds scans: every record lands in exactly one
    day, each accelerometer sample joins the day of its slice, and samples
    in a slice without scans are dropped.  Days come out in calendar order.
    Raises OrderingError if either input is not sorted by timestamp.
    """
    _check_time_order(map(ts_of, records), "records")
    _check_time_order(map(ts_of, accel), "accel samples")

    # Slice k starts at k * DAY_S + NOON_SOD.  Each k becomes its date once,
    # from its first record, so a date out of range names that record.
    by_slice: dict[int, tuple[list[ScanRecord], list[AccelSample]]] = {}
    for r in records:
        by_slice.setdefault((r.ts - NOON_SOD) // DAY_S, ([], []))[0].append(r)
    for a in accel:
        if (k := (a.ts - NOON_SOD) // DAY_S) in by_slice:
            by_slice[k][1].append(a)
    return [
        DayTrace(day_id_for_ts(scans[0].ts), tuple(scans), tuple(acc))
        for k, (scans, acc) in sorted(by_slice.items())
    ]


# ---------------------------------------------------------------------------
# distance

def haversine_m(a: GpsFix, b: GpsFix) -> float:
    """Great-circle distance in meters between two fixes.

    Uses the haversine formula with a mean Earth radius of 6 371 000 m.
    Symmetric and nonnegative.
    """
    phi1 = math.radians(a.lat_deg)
    phi2 = math.radians(b.lat_deg)
    dphi = math.radians(b.lat_deg - a.lat_deg)
    dlam = math.radians(b.lon_deg - a.lon_deg)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


# ---------------------------------------------------------------------------
# JSONL trace format
#
# One scan per line:
#   {"ts":<int>,"gps":{"lat":<f>,"lon":<f>}|null,"conn":"<bssid>"|null,
#    "aps":[{"bssid":"<b>","rssi":<int>}]}
# Accelerometer file: {"ts":<int>,"mag":<f>} per line.  UTF-8, LF endings.

class _SeenBssids(dict):
    """Raw BSSID string -> its Bssid, validating each distinct string once."""

    def __missing__(self, raw) -> Bssid:
        b = self[raw] = Bssid(raw)
        return b


class _SeenObservations(dict):
    """Raw (bssid, rssi) pair -> its ApObservation, built and validated once.

    A pair that fails validation is never stored, so it raises again on
    every line where it appears.  A table lives as long as what it serves:
    one parsed file, one simulated day, or the days of one simulated dataset.
    """

    def __init__(self, bssids: _SeenBssids):
        super().__init__()
        self.bssids = bssids

    def __missing__(self, raw: tuple) -> ApObservation:
        obs = self[raw] = ApObservation(self.bssids[raw[0]], int(raw[1]))
        return obs


def _parse_jsonl(stream, what: str, from_obj) -> list:
    """Decode JSONL (bytes, str, or binary file object) with ``from_obj``.

    Blank lines are skipped; items come back in file order.  An undecodable
    line, or one ``from_obj`` rejects with KeyError, OverflowError,
    TypeError or ValueError, raises TraceParseError with its line number; a
    TraceValidationError from ``from_obj`` is re-raised with the line
    number prefixed.

    Each line goes through the C scanner; a line it cannot take whole
    (surrounding whitespace, a BOM, extra data, invalid JSON) is handed to
    ``json.loads``, so every line decodes, or fails, exactly as
    ``json.loads(line)`` would.
    """
    if hasattr(stream, "read"):
        stream = stream.read()
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    scan_once = json.JSONDecoder().scan_once
    items = []
    for lineno, line in enumerate(stream.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj, end = scan_once(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(line):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        try:
            items.append(from_obj(obj))
        except TraceValidationError as exc:
            raise TraceValidationError(f"line {lineno}: {exc}") from exc
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise TraceParseError(f"line {lineno}: malformed {what} ({exc})") from exc
    return items


def _record_from_obj(obj: dict, observations: _SeenObservations) -> ScanRecord:
    ts = int(obj["ts"])
    gps_obj = obj.get("gps")
    gps = None if gps_obj is None else GpsFix(float(gps_obj["lat"]), float(gps_obj["lon"]))
    conn_obj = obj.get("conn")
    conn = None if conn_obj is None else observations.bssids[conn_obj]
    entries = obj["aps"]
    try:
        aps = tuple([observations[e["bssid"], e["rssi"]] for e in entries])
    except (KeyError, TypeError):
        # A malformed entry: build entry by entry, bssid first, so it fails
        # with the same error as an uncached read.
        aps = tuple(
            ApObservation(observations.bssids[e["bssid"]], int(e["rssi"])) for e in entries
        )
    return ScanRecord(ts, gps, conn, aps)


def parse_trace_file(stream) -> list[ScanRecord]:
    """Parse a JSONL trace (bytes, str, or binary file object) into records.

    Records come back in file order.  A malformed line raises TraceParseError
    with its line number; invariant violations raise TraceValidationError.
    Equal observations within one call share one validated ApObservation.
    """
    observations = _SeenObservations(_SeenBssids())  # per call, so nothing outlives this file
    return _parse_jsonl(stream, "record", lambda obj: _record_from_obj(obj, observations))


def _json_float(x: float) -> str:
    """A number as ``json.dumps`` writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return repr(x)


def _jsonl(lines: list[str]) -> bytes:
    """The lines as a JSONL document: UTF-8, each ending in LF; ``b""`` for none."""
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def serialize_scan_records(records: Iterable[ScanRecord]) -> bytes:
    """The records as JSONL, one compact line per record.

    Each line is exactly what ``json.dumps(obj, separators=(",", ":"))``
    writes for the record's object, built directly because that runs the
    encoder once per line.  An empty input gives ``b""``.
    """
    lines = []
    for r in records:
        fix = r.gps
        gps = "null" if fix is None else (
            f'{{"lat":{_json_float(fix.lat_deg)},"lon":{_json_float(fix.lon_deg)}}}'
        )
        conn = "null" if r.connected is None else _json_str(r.connected)
        aps = ",".join([f'{{"bssid":{_json_str(o.bssid)},"rssi":{o.rssi_dbm}}}' for o in r.aps])
        lines.append(f'{{"ts":{r.ts},"gps":{gps},"conn":{conn},"aps":[{aps}]}}')
    return _jsonl(lines)


def parse_accel_file(stream) -> list[AccelSample]:
    """Parse a JSONL accelerometer file into samples, in file order."""
    return _parse_jsonl(stream, "sample", lambda obj: AccelSample(int(obj["ts"]), float(obj["mag"])))


def serialize_accel_samples(samples: Iterable[AccelSample]) -> bytes:
    """The samples as JSONL, written as ``serialize_scan_records`` writes records."""
    return _jsonl([f'{{"ts":{a.ts},"mag":{_json_float(a.magnitude_mps2)}}}' for a in samples])


def load_trace_file(path) -> list[ScanRecord]:
    with open(path, "rb") as fh:
        return parse_trace_file(fh)


def load_accel_file(path) -> list[AccelSample]:
    with open(path, "rb") as fh:
        return parse_accel_file(fh)


def filter_trace(trace: DayTrace, level_dbm: int | None) -> DayTrace:
    """Drop observations weaker than ``level_dbm`` (None keeps everything).

    Scans whose AP list becomes empty are kept as empty records.  A scan that
    loses an AP is recorded anew (``ScanRecord.recorded``); one that loses
    none is kept as the same object.
    """
    if level_dbm is None:
        return trace
    scans = []
    for s in trace.scans:
        aps = tuple([o for o in s.aps if o.rssi_dbm >= level_dbm])
        scans.append(s if len(aps) == len(s.aps) else ScanRecord.recorded(s.ts, s.gps, s.connected, aps))
    return DayTrace(trace.day_id, tuple(scans), trace.accel)
