"""Canonical data model for WiFi scan traces.

Every other module consumes the immutable value types defined here:
BSSID identifiers, per-AP observations, GPS fixes, accelerometer samples,
scan records and noon-to-noon day slices.  The module also owns the JSONL
trace file format, day slicing, and great-circle distance.

All types are immutable (frozen dataclasses, and a ``str`` subclass for
BSSIDs), safe to share across threads.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, time, timezone
from typing import Iterable, Sequence

from .errors import OrderingError, TraceParseError, TraceValidationError

EARTH_RADIUS_M = 6_371_000.0
DAY_S = 86_400
# Day slices run from 12:00 to the next 12:00 so the 21:00-06:00 night
# window never straddles a slice boundary.
NOON_SOD = DAY_S // 2

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

    @property
    def value(self) -> str:
        """The canonical form as a plain ``str``."""
        return str.__str__(self)

    def __repr__(self) -> str:
        return f"Bssid({str.__repr__(self)})"


@dataclass(frozen=True, slots=True)
class ApObservation:
    """One AP sighting inside a scan: identifier plus signal strength."""

    bssid: Bssid
    rssi_dbm: int

    def __post_init__(self) -> None:
        if not -120 <= self.rssi_dbm <= 0:
            raise TraceValidationError(
                f"rssi {self.rssi_dbm} dBm outside [-120, 0] for {self.bssid}"
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
        if self.magnitude_mps2 < 0:
            raise TraceValidationError("accelerometer magnitude must be >= 0")


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

    def bssids(self) -> set[Bssid]:
        return {o.bssid for o in self.aps}

    def rssi_of(self, bssid: Bssid) -> int | None:
        for o in self.aps:
            if o.bssid == bssid:
                return o.rssi_dbm
        return None


@dataclass(frozen=True, slots=True)
class DayTrace:
    """All scans and accelerometer samples of one noon-to-noon slice."""

    day_id: date
    scans: tuple[ScanRecord, ...]
    accel: tuple[AccelSample, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.scans, tuple):
            object.__setattr__(self, "scans", tuple(self.scans))
        if not isinstance(self.accel, tuple):
            object.__setattr__(self, "accel", tuple(self.accel))
        start = day_slice_start(self.day_id)
        end = start + DAY_S
        prev = None
        for s in self.scans:
            if prev is not None and s.ts < prev:
                raise OrderingError(f"scans not time-ordered around ts {s.ts}")
            if not start <= s.ts < end:
                raise TraceValidationError(
                    f"scan ts {s.ts} outside slice {self.day_id}"
                )
            prev = s.ts
        prev = None
        for a in self.accel:
            if prev is not None and a.ts < prev:
                raise OrderingError(f"accel not time-ordered around ts {a.ts}")
            if not start <= a.ts < end:
                raise TraceValidationError(
                    f"accel ts {a.ts} outside slice {self.day_id}"
                )
            prev = a.ts


# ---------------------------------------------------------------------------
# day slicing

def day_slice_start(day_id: date) -> int:
    """Epoch second at which the slice labelled ``day_id`` begins (12:00 UTC)."""
    return int(datetime.combine(day_id, time(12, 0), tzinfo=timezone.utc).timestamp())


def day_id_for_ts(ts: int) -> date:
    """Slice label for an epoch second: the date whose noon starts the slice."""
    return datetime.fromtimestamp(ts - NOON_SOD, tz=timezone.utc).date()


def seconds_of_day(ts: int) -> int:
    return ts % DAY_S


def slice_into_days(
    records: Sequence[ScanRecord],
    accel: Sequence[AccelSample] = (),
) -> list[DayTrace]:
    """Partition time-ordered records into noon-to-noon DayTraces.

    Every record lands in exactly one slice; slices come out in calendar
    order.  Raises OrderingError if the input is not sorted by timestamp.
    """
    for seq, what in ((records, "records"), (accel, "accel samples")):
        prev = None
        for item in seq:
            if prev is not None and item.ts < prev:
                raise OrderingError(f"{what} not sorted by ts (around {item.ts})")
            prev = item.ts

    by_day: dict[date, tuple[list[ScanRecord], list[AccelSample]]] = {}
    for r in records:
        by_day.setdefault(day_id_for_ts(r.ts), ([], []))[0].append(r)
    for a in accel:
        by_day.setdefault(day_id_for_ts(a.ts), ([], []))[1].append(a)
    return [
        DayTrace(day, tuple(scans), tuple(acc))
        for day, (scans, acc) in sorted(by_day.items())
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


def _record_from_obj(obj: dict, lineno: int, bssids: _SeenBssids) -> ScanRecord:
    try:
        ts = int(obj["ts"])
        gps_obj = obj.get("gps")
        gps = None if gps_obj is None else GpsFix(float(gps_obj["lat"]), float(gps_obj["lon"]))
        conn_obj = obj.get("conn")
        conn = None if conn_obj is None else bssids[conn_obj]
        aps = tuple(
            ApObservation(bssids[e["bssid"]], int(e["rssi"])) for e in obj["aps"]
        )
        return ScanRecord(ts=ts, gps=gps, connected=conn, aps=aps)
    except TraceValidationError as exc:
        raise TraceValidationError(f"line {lineno}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceParseError(f"line {lineno}: malformed record ({exc})") from exc


def parse_trace_file(stream) -> list[ScanRecord]:
    """Parse a JSONL trace (bytes, str, or binary file object) into records.

    Records come back in file order.  A malformed line raises TraceParseError
    with its line number; invariant violations raise TraceValidationError.
    """
    if hasattr(stream, "read"):
        stream = stream.read()
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    records = []
    bssids = _SeenBssids()  # per call, so nothing outlives this file
    for lineno, line in enumerate(stream.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        records.append(_record_from_obj(obj, lineno, bssids))
    return records


def serialize_scan_records(records: Iterable[ScanRecord]) -> bytes:
    lines = []
    for r in records:
        obj = {
            "ts": r.ts,
            "gps": None if r.gps is None else {"lat": r.gps.lat_deg, "lon": r.gps.lon_deg},
            "conn": None if r.connected is None else str(r.connected),
            "aps": [{"bssid": str(o.bssid), "rssi": o.rssi_dbm} for o in r.aps],
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def parse_accel_file(stream) -> list[AccelSample]:
    """Parse a JSONL accelerometer file into samples, in file order."""
    if hasattr(stream, "read"):
        stream = stream.read()
    if isinstance(stream, bytes):
        stream = stream.decode("utf-8")
    samples = []
    for lineno, line in enumerate(stream.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            samples.append(AccelSample(int(obj["ts"]), float(obj["mag"])))
        except json.JSONDecodeError as exc:
            raise TraceParseError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        except TraceValidationError as exc:
            raise TraceValidationError(f"line {lineno}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceParseError(f"line {lineno}: malformed sample ({exc})") from exc
    return samples


def serialize_accel_samples(samples: Iterable[AccelSample]) -> bytes:
    lines = [
        json.dumps({"ts": a.ts, "mag": a.magnitude_mps2}, separators=(",", ":"))
        for a in samples
    ]
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def load_trace_file(path) -> list[ScanRecord]:
    with open(path, "rb") as fh:
        return parse_trace_file(fh)


def load_accel_file(path) -> list[AccelSample]:
    with open(path, "rb") as fh:
        return parse_accel_file(fh)


def filter_trace(trace: DayTrace, threshold_dbm: int | None) -> DayTrace:
    """Drop observations weaker than ``threshold_dbm`` (None keeps everything).

    Scans whose AP list becomes empty are kept as empty records; a connected
    flag pointing at a filtered-out AP is cleared.
    """
    if threshold_dbm is None:
        return trace
    scans = []
    for s in trace.scans:
        aps = tuple(o for o in s.aps if o.rssi_dbm >= threshold_dbm)
        conn = s.connected if s.connected in {o.bssid for o in aps} else None
        scans.append(ScanRecord(s.ts, s.gps, conn, aps))
    return DayTrace(trace.day_id, tuple(scans), trace.accel)
