"""Synthetic commute traces with planted ground truth.

A scenario describes a fixed route of APs (an overlapping coverage chain
ending where the persistent home AP comes into range), a per-day transport
mode draw, noise, and nightly home presence.  Each day is rendered by a
DayOracle that can answer "what would the phone see at second t" for any t,
which makes the same day reproducible at full scan rate (synth_plan_day) or
through the duty-cycling state machine.  Everything is a pure function of
(inputs, seed): per-day seeds are the master seed XOR the day index, and
observation noise is keyed by (day seed, timestamp, sensor) and drawn in a
fixed source order, so days can be regenerated independently and in any
order.

Ground truth per day: the arrival instant (first full-rate scan containing
the home AP) and a planted door-opening event (a one-scan spike of three
transient APs, an 8 dB home-RSSI dip over 10 s, and 5 s of accelerometer
stillness centered on the door time).
"""

from __future__ import annotations

import configparser
import functools
import math
import random
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from datetime import date, timedelta

from .errors import ConfigurationError, TimelocError
from .home_mining import NIGHT_CLOSE_S, NIGHT_OPEN_S
from .trace_model import (
    DAY_S,
    EARTH_RADIUS_M,
    NOON_SOD,
    RSSI_MAX_DBM,
    RSSI_MIN_DBM,
    SCAN_PERIOD_S,
    AccelSample,
    ApObservation,
    Bssid,
    DayTrace,
    GpsFix,
    RenderedOnRead,
    ScanRecord,
    _SeenBssids,
    _SeenObservations,
    day_slice_start,
)

MORNING_SCAN_PERIOD_S = 60
# The home AP is in range, at this level, from the last HOME_RANGE_S
# base-speed seconds of the evening route through the first of the morning's.
HOME_RANGE_S = 40
HOME_PEAK_DBM = -45.0
BASE_SPEED_MPS = 1.4  # walking pace that converts route seconds to meters
RAMP_DEPTH_DB = 35.0  # trapezoid edge attenuation below the plateau
RAMP_FRAC = 0.25
M_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0

_NEIGHBOR_BSSID_BASE = 0x2000_00
_SPIKE_BSSID_BASE = 0x3000_00
_ROUTE, _HOME, _NEIGHBOR, _SPIKE = range(4)  # observation source kinds
_M64 = (1 << 64) - 1


def bssid_from_int(n: int) -> Bssid:
    octets = [0x02] + [(n >> shift) & 0xFF for shift in (32, 24, 16, 8, 0)]
    return Bssid(":".join(f"{o:02x}" for o in octets))


# The home AP of every day from a relocation's move day onward.
NEW_HOME_BSSID = bssid_from_int(0x1F_FF01)
_SPIKE_BSSIDS = tuple(bssid_from_int(_SPIKE_BSSID_BASE + i) for i in range(3))


@functools.lru_cache(maxsize=4)
def _neighbor_bssids(count: int) -> tuple[Bssid, ...]:
    """The BSSIDs of a night's ``count`` neighbor APs, constants per count."""
    return tuple(bssid_from_int(_NEIGHBOR_BSSID_BASE + i) for i in range(count))


def _mix(*parts) -> int:
    """Stable 32-bit hash for keyed sub-streams (process-independent)."""
    return zlib.crc32("|".join(map(str, parts)).encode("utf-8"))


_GOLD = 0x9E3779B97F4A7C15
_STEP = 0xD1342543DE82EF95
_TWO_PI = 2.0 * math.pi


def _sm64(z: int) -> int:
    """splitmix64 finalizer: cheap, well-mixed 64-bit hash of an int key."""
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _draw(key: int) -> float:
    """Uniform draw in (0, 1] from a key: the top 53 bits of ``_sm64(key)``.

    Draw i of a keyed stream is ``_draw(base + i * _GOLD)``.  The hash is
    written out here, not called, so that each draw costs one call.
    """
    key &= _M64
    key ^= key >> 30
    key = (key * 0xBF58476D1CE4E5B9) & _M64
    key ^= key >> 27
    key = (key * 0x94D049BB133111EB) & _M64
    return (((key ^ (key >> 31)) >> 11) + 1) / (2**53 + 1)


# ---------------------------------------------------------------------------
# scenario description

@dataclass(frozen=True, slots=True)
class ApPlacement:
    """An AP's coverage interval along the route, in base-speed seconds."""

    bssid: Bssid
    enter_offset_s: int
    exit_offset_s: int
    peak_rssi_dbm: int

    def __post_init__(self) -> None:
        if self.enter_offset_s >= self.exit_offset_s:
            raise ConfigurationError(f"{self.bssid}: enter must precede exit")
        if not -90 <= self.peak_rssi_dbm <= -30:
            raise ConfigurationError(f"{self.bssid}: peak RSSI outside [-90, -30]")


@dataclass(frozen=True, slots=True)
class TransportMode:
    name: str
    speed_factor: float

    def __post_init__(self) -> None:
        if not 0.0 < self.speed_factor < math.inf:
            raise ConfigurationError("speed_factor must be finite and > 0")


@dataclass(frozen=True, slots=True)
class ModeMix:
    """Mixture distribution over transport modes with per-day speed jitter."""

    modes: tuple[tuple[TransportMode, float], ...]
    speed_jitter_frac: float = 0.0

    def __post_init__(self) -> None:
        weights = [w for _, w in self.modes]
        # each comparison is false for NaN, so a NaN weight or total fails
        if not (all(0.0 <= w < math.inf for w in weights) and 0.0 < sum(weights) < math.inf):
            raise ConfigurationError("mode weights must be finite and >= 0 with a positive finite total")
        if not 0.0 <= self.speed_jitter_frac < 1.0:
            raise ConfigurationError("speed_jitter_frac outside [0, 1)")


@dataclass(frozen=True, slots=True)
class RouteSpec:
    """The route's own APs, and the home AP whose range ends the route."""

    aps: tuple[ApPlacement, ...]
    home_bssid: Bssid
    home_fix: GpsFix
    route_duration_s: int

    def __post_init__(self) -> None:
        # The home comes into range HOME_RANGE_S before the route ends, so a
        # shorter route would plant its arrival before its departure.
        if self.route_duration_s <= HOME_RANGE_S:
            raise ConfigurationError(
                f"route duration {self.route_duration_s} s must exceed the home range {HOME_RANGE_S} s"
            )
        for p in self.aps:
            if p.bssid == self.home_bssid:
                raise ConfigurationError(f"{p.bssid}: a route AP cannot be the home AP")
            if p.exit_offset_s > self.route_duration_s:
                raise ConfigurationError(f"{p.bssid}: coverage extends past the route end")


@dataclass(frozen=True, slots=True)
class NightDwellSpec:
    """Nightly home presence: scan cadence, morning departure, neighbor APs."""

    scan_period_s: int = 600
    morning_depart_sod: int = 8 * 3600
    neighbor_count: int = 3
    neighbor_dwell_s: int = 5400

    def __post_init__(self) -> None:
        if self.scan_period_s < 1:
            raise ConfigurationError("night scan_period_s must be >= 1")
        if self.neighbor_count < 0:
            raise ConfigurationError("night neighbor_count must be >= 0")
        if self.neighbor_dwell_s < 0:
            raise ConfigurationError("night neighbor_dwell_s must be >= 0")


@dataclass(frozen=True, slots=True)
class NoiseParams:
    rssi_sigma_db: float = 0.0
    dropout_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ConfigurationError("dropout_prob outside [0, 1]")
        if not 0.0 <= self.rssi_sigma_db < math.inf:
            raise ConfigurationError("rssi_sigma_db must be finite and >= 0")


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    route: RouteSpec
    n_days: int
    mode_schedule: ModeMix
    detour_prob: float = 0.0
    detour_duration_s: int = 90
    noise: NoiseParams = NoiseParams()
    depart_time_jitter_s: int = 0
    night_dwell: NightDwellSpec = NightDwellSpec()
    depart_sod: int = 18 * 3600
    start_day: date = date(2024, 1, 1)
    move_day: int | None = None  # from this 0-based day index on, home is NEW_HOME_BSSID

    def __post_init__(self) -> None:
        if self.n_days < 1:
            raise ConfigurationError("n_days must be >= 1")
        if self.n_days - 1 > (date.max - self.start_day).days:
            raise ConfigurationError(f"{self.n_days} days from {self.start_day} run past {date.max}")
        if not 0.0 <= self.detour_prob <= 1.0:
            raise ConfigurationError("detour_prob outside [0, 1]")
        if self.move_day is not None and self.move_day < 0:
            raise ConfigurationError("move_day must be >= 0")
        if self.depart_time_jitter_s < 0:
            raise ConfigurationError("depart_time_jitter_s must be >= 0")
        if self.detour_duration_s < 0:
            raise ConfigurationError("detour_duration_s must be >= 0")


@dataclass(frozen=True, slots=True)
class GroundTruth:
    day_id: date
    arrival_ts: int
    door_ts: int
    mode: TransportMode

    def __post_init__(self) -> None:
        if not self.arrival_ts - 60 <= self.door_ts <= self.arrival_ts + 120:
            raise ConfigurationError("door_ts outside [arrival-60, arrival+120]")


@dataclass(frozen=True, slots=True)
class DayPlan:
    """Fully resolved schedule for one day; everything downstream is pure."""

    day_id: date
    route: RouteSpec
    mode: TransportMode
    depart_ts: int
    detour_s: int
    door_delay_s: int
    noise: NoiseParams
    night: NightDwellSpec
    seed: int


def make_day_plan(scenario: ScenarioSpec, day_index: int, master_seed: int) -> DayPlan:
    """Resolve scenario randomness for one day (per-day seed = master XOR index)."""
    day_seed = master_seed ^ day_index
    rng = random.Random(_mix(day_seed, "plan"))

    mix = scenario.mode_schedule
    modes = [m for m, _ in mix.modes]
    weights = [w for _, w in mix.modes]
    base = rng.choices(modes, weights=weights)[0]
    jitter = mix.speed_jitter_frac
    factor = base.speed_factor * (1.0 + rng.uniform(-jitter, jitter)) if jitter else base.speed_factor
    mode = TransportMode(base.name, factor)

    depart_jitter = (
        rng.randint(-scenario.depart_time_jitter_s, scenario.depart_time_jitter_s)
        if scenario.depart_time_jitter_s
        else 0
    )
    detour_draw = rng.random()
    detour_s = scenario.detour_duration_s if detour_draw < scenario.detour_prob else 0
    door_delay_s = 25 + 5 * rng.randint(0, 7)

    route = scenario.route
    if scenario.move_day is not None and day_index >= scenario.move_day:
        route = replace(route, home_bssid=NEW_HOME_BSSID)

    try:
        day_id = scenario.start_day + timedelta(days=day_index)
    except OverflowError:
        raise ConfigurationError(f"day index {day_index} falls outside the supported dates") from None
    depart_ts = day_slice_start(day_id) + (scenario.depart_sod - NOON_SOD) % DAY_S + depart_jitter
    return DayPlan(
        day_id=day_id,
        route=route,
        mode=mode,
        depart_ts=depart_ts,
        detour_s=detour_s,
        door_delay_s=door_delay_s,
        noise=scenario.noise,
        night=scenario.night_dwell,
        seed=day_seed,
    )


# ---------------------------------------------------------------------------
# the day oracle

class DayOracle:
    """Deterministic per-second view of one synthetic day.

    Exposes what the phone would observe at any epoch second of the slice:
    visible APs with noisy RSSI, GPS fix while outdoors, connection state,
    and accelerometer magnitude.  The full-rate trace and the duty-cycled
    sensed trace both sample this object, so one is a sub-view of the other.
    """

    def __init__(self, plan: DayPlan, *, _seen: _SeenObservations | None = None):
        route = plan.route
        self.plan = plan
        self.home_bssid = route.home_bssid
        self.home_fix = route.home_fix
        self._noise = plan.noise
        self._stream_key = _mix(plan.seed, "obs") * _GOLD
        # interns observations: the day's own table, or its dataset's
        self._observations = _SeenObservations(_SeenBssids()) if _seen is None else _seen

        f = plan.mode.speed_factor
        self.slice_start = start = day_slice_start(plan.day_id)
        self.slice_end = start + DAY_S
        night = plan.night
        self.morning_depart_ts = start + (night.morning_depart_sod - NOON_SOD) % DAY_S
        self._night_start_ts = start + NIGHT_OPEN_S
        self._night_end_ts = start + NIGHT_CLOSE_S

        duration = route.route_duration_s
        md = self.morning_depart_ts
        self.depart_ts = depart = plan.depart_ts
        home_enter = depart + round((duration - HOME_RANGE_S) / f) + plan.detour_s
        k = -((home_enter - depart) // -SCAN_PERIOD_S)  # ceil division
        self.arrival_ts = depart + k * SCAN_PERIOD_S
        self.door_ts = self.arrival_ts + plan.door_delay_s
        # Otherwise the day's scans would leave its slice or overlap the morning's.
        if min(depart, self.arrival_ts - 60) < start:
            raise ConfigurationError(f"day {plan.day_id}: the evening commute begins before the slice's noon")
        if self.door_ts + 30 >= md:
            raise ConfigurationError(f"day {plan.day_id}: the evening commute runs into the morning departure")
        self._home_window = (home_enter, md + round(HOME_RANGE_S / f))
        self._gps_windows = ((depart, self.arrival_ts), (md, md + round(duration / f)))
        self._connected_window = (self.door_ts + 20, md)
        self._walk_window = (self.arrival_ts - 60, self.door_ts + 30)
        self._speed_mps = BASE_SPEED_MPS * f

        # Every observation source is visible on one half-open interval
        # [start, end): (kind, bssid, start, end, level), in draw order.
        sources: list[tuple] = []
        for p in route.aps:
            ev = (depart + round(p.enter_offset_s / f), depart + round(p.exit_offset_s / f))
            mo = (
                md + round((duration - p.exit_offset_s) / f),
                md + round((duration - p.enter_offset_s) / f),
            )
            sources.append((_ROUTE, p.bssid, *ev, p.peak_rssi_dbm))
            sources.append((_ROUTE, p.bssid, *mo, p.peak_rssi_dbm))
        sources.append((_HOME, self.home_bssid, *self._home_window, HOME_PEAK_DBM))
        nrng = random.Random(_mix(plan.seed, "night"))
        span = self._night_end_ts - self._night_start_ts
        for bssid in _neighbor_bssids(night.neighbor_count):
            dwell = min(night.neighbor_dwell_s, span)
            begin = self._night_start_ts + nrng.randint(0, span - dwell)
            sources.append((_NEIGHBOR, bssid, begin, begin + dwell, -65.0))
        spike_end = self.door_ts + SCAN_PERIOD_S
        for bssid in _SPIKE_BSSIDS:
            sources.append((_SPIKE, bssid, self.door_ts, spike_end, -67.0))
        sources = [src for src in sources if src[2] < src[3]]

        # The visibility timeline: segment i is [edges[i-1], edges[i]) and
        # holds the sources active there, still in draw order; segments 0
        # and len(edges) lie outside every interval.
        edges = sorted({t for src in sources for t in (src[2], src[3])})
        segments: list[list] = [[] for _ in range(len(edges) + 1)]
        for src in sources:
            for i in range(bisect_left(edges, src[2]) + 1, bisect_left(edges, src[3]) + 1):
                segments[i].append(src)
        self._edges = edges
        self._segments = [tuple(seg) for seg in segments]

    # -- observation helpers --------------------------------------------
    #
    # One keyed draw stream per whole second, shared by every AP observed at
    # that instant.  The draw order inside a scan is the fixed source order
    # (route windows, home, neighbors, spikes), so any consumer sampling the
    # same second sees the identical set.

    def _stream_base(self, stream: int, ts: int) -> int:
        return _sm64(self._stream_key + ts * _STEP + stream)

    @staticmethod
    def _trapezoid(peak: int, start: int, end: int, ts: int) -> float:
        u = (ts - start) / (end - start)
        if u < RAMP_FRAC:
            edge = (RAMP_FRAC - u) / RAMP_FRAC
        elif u > 1.0 - RAMP_FRAC:
            edge = (u - (1.0 - RAMP_FRAC)) / RAMP_FRAC
        else:
            edge = 0.0
        return peak - RAMP_DEPTH_DB * edge

    def aps_at(self, ts: int) -> tuple[ApObservation, ...]:
        active = self._segments[bisect_right(self._edges, ts)]
        if not active:
            return ()
        key = self._stream_base(1, ts)  # the key of the next draw
        sigma = self._noise.rssi_sigma_db
        p_drop = self._noise.dropout_prob
        obs: dict[Bssid, int] = {}
        for kind, bssid, start, end, value in active:
            can_drop = kind != _SPIKE  # the planted spike never drops out
            if kind == _ROUTE:
                value = self._trapezoid(value, start, end, ts)
            elif kind == _HOME:
                if self.door_ts <= ts < self.door_ts + 10:
                    value -= 8.0  # door-crossing RSSI dip
                # the plant must survive its own noise: arrival stays
                # detectable and the door signature keeps its home observations
                can_drop = not (ts == self.arrival_ts or self.door_ts - 1 <= ts <= self.door_ts + 11)
            if sigma:
                u1 = _draw(key)
                key += _GOLD
                u2 = _draw(key)
                key += _GOLD
                value += sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
            if can_drop and p_drop:
                u = _draw(key)
                key += _GOLD
                if u < p_drop:
                    continue
            obs[bssid] = max(RSSI_MIN_DBM, min(RSSI_MAX_DBM, round(value)))
        seen = self._observations
        return tuple([seen[pair] for pair in sorted(obs.items())])

    def quiet_until(self, ts: int) -> int:
        """The first second in [ts, slice_end) at which some AP source is
        active, a fix is available or the home connection holds, else
        ``slice_end``.

        Conservative: a source counts while it is active, even at a second
        where its observation drops out.  So GPS, WiFi and the connection
        read nothing from ``ts`` up to the returned second, which the sensing
        machine relies on to skip its idle checks there.
        """
        i = bisect_right(self._edges, ts)
        if self._segments[i]:
            return min(ts, self.slice_end)
        # Every edge opens or closes a source, so no two adjacent segments
        # are both empty: the next one is active unless none follows.
        first = self._edges[i] if i < len(self._edges) else self.slice_end
        (depart, arrival), (morning_depart, morning_end) = self._gps_windows
        for start, end in ((depart, arrival + 1), (morning_depart, morning_end + 1), self._connected_window):
            if max(start, ts) < end:
                first = min(first, max(start, ts))
        return min(first, self.slice_end)

    def gps_at(self, ts: int) -> GpsFix | None:
        (depart, arrival), (morning_depart, morning_end) = self._gps_windows
        if depart <= ts <= arrival:
            dist_m = self._speed_mps * max(0, self._home_window[0] - ts)
        elif morning_depart <= ts <= morning_end:
            dist_m = self._speed_mps * max(0, ts - morning_depart)
        else:
            return None
        return GpsFix(
            self.home_fix.lat_deg + dist_m / M_PER_DEG_LAT,
            self.home_fix.lon_deg,
        )

    def connected_at(self, ts: int) -> Bssid | None:
        start, end = self._connected_window
        return self.home_bssid if start <= ts < end else None

    def accel_at(self, ts: int) -> float:
        key = self._stream_base(2, ts)
        if abs(ts - self.door_ts) <= 2:
            wobble = 0.04 * _draw(key) - 0.02
            return round(9.81 + wobble, 3)  # planted stillness
        walking = self._walk_window[0] <= ts <= self._walk_window[1]
        sigma = 0.3 if walking else 0.01
        noise = sigma * math.sqrt(-2.0 * math.log(_draw(key))) * math.cos(_TWO_PI * _draw(key + _GOLD))
        if walking:
            swing = 1.8 if ts % 2 == 0 else -1.8
            return round(max(0.0, 9.8 + swing + noise), 3)
        return round(9.81 + noise, 3)

    # -- sampling schedules ----------------------------------------------

    def scan_instants(self) -> list[int]:
        instants = list(range(self.depart_ts, self.door_ts + 31, SCAN_PERIOD_S))
        period = self.plan.night.scan_period_s
        instants.extend(range(instants[-1] + period, self.morning_depart_ts, period))
        morning_end = self._gps_windows[1][1] + MORNING_SCAN_PERIOD_S  # the morning route's end
        instants.extend(range(self.morning_depart_ts, min(morning_end, self.slice_end - 1), MORNING_SCAN_PERIOD_S))
        return instants

    def accel_instants(self) -> list[int]:
        return list(range(self._walk_window[0], self._walk_window[1] + 1))

    def ground_truth(self) -> GroundTruth:
        return GroundTruth(
            day_id=self.plan.day_id,
            arrival_ts=self.arrival_ts,
            door_ts=self.door_ts,
            mode=self.plan.mode,
        )


# ---------------------------------------------------------------------------
# trace synthesis

def synth_plan_day(plan: DayPlan, *, _seen: _SeenObservations | None = None) -> tuple[DayTrace, GroundTruth]:
    """Render one planned day as a full-rate DayTrace plus its ground truth.

    The trace's scans and accelerometer samples are RenderedOnRead: each is
    rendered from the day's oracle when it is first read, so a reader pays
    only for what it reads.  Each item comes from its own keyed draw stream,
    so it is the same whatever else was read; a read item never changes, and
    two threads racing on one index render equal items.  A day rendered
    alone interns its observations in a table of its own.
    """
    oracle = DayOracle(plan, _seen=_seen)
    scans = RenderedOnRead(
        oracle.scan_instants(),
        lambda ts: ScanRecord.recorded(ts, oracle.gps_at(ts), oracle.connected_at(ts), oracle.aps_at(ts)),
    )
    accel = RenderedOnRead(oracle.accel_instants(), lambda ts: AccelSample(ts, oracle.accel_at(ts)))
    return DayTrace(plan.day_id, scans, accel), oracle.ground_truth()


def synth_dataset(
    scenario: ScenarioSpec, seed: int
) -> tuple[list[DayTrace], list[GroundTruth]]:
    """All days of a scenario, each generated from its own derived seed.

    The days share one intern table, which lives as long as they do: equal
    observations on any of them are one object, built and validated once.
    Each day still equals the same day rendered alone by ``synth_plan_day``.
    """
    seen = _SeenObservations(_SeenBssids())
    days = [synth_plan_day(make_day_plan(scenario, i, seed), _seen=seen) for i in range(scenario.n_days)]
    return [trace for trace, _ in days], [truth for _, truth in days]


# ---------------------------------------------------------------------------
# route and scenario factories

DEFAULT_HOME_FIX = GpsFix(39.98, 116.31)


def make_chain_route(
    ap_count: int = 14,
    duration_s: int = 600,
    coverage_s: int = 110,
    peak_rssi_dbm: int = -50,
    *,
    weak_bridge: bool = True,
    home_fix: GpsFix = DEFAULT_HOME_FIX,
) -> RouteSpec:
    """Overlapping AP chain ending where the home AP comes into range.

    With ``weak_bridge`` the middle AP is demoted to a -78 dBm bridge and
    its neighbors pulled back, leaving a stretch where only a weak AP is
    audible; useful for exercising RSSI-filter behavior.
    """
    if ap_count < 2:
        raise ConfigurationError("need at least 2 route APs")
    step = (duration_s - coverage_s) / (ap_count - 1)
    placements = []
    for i in range(ap_count):
        enter = round(i * step / 5) * 5
        exit_ = min(enter + coverage_s, duration_s)
        placements.append(ApPlacement(bssid_from_int(0x1000_00 + i), enter, exit_, peak_rssi_dbm))
    if weak_bridge and ap_count >= 8:
        mid = ap_count // 2
        bridge = placements[mid]
        placements[mid] = replace(bridge, peak_rssi_dbm=-78)
        before = placements[mid - 1]
        after = placements[mid + 1]
        gap_lo = bridge.enter_offset_s + 35
        gap_hi = bridge.exit_offset_s - 35
        placements[mid - 1] = replace(before, exit_offset_s=max(before.enter_offset_s + 5, gap_lo))
        placements[mid + 1] = replace(after, enter_offset_s=min(after.exit_offset_s - 5, gap_hi))
    return RouteSpec(tuple(placements), bssid_from_int(0x1F_FF00), home_fix, duration_s)


WALK = TransportMode("walk", 1.0)
CYCLE = TransportMode("cycle", 2.0)


def simple_walk_scenario(n_days: int = 24) -> ScenarioSpec:
    """Walk-only commute with moderate noise; the plain evaluation setting."""
    return ScenarioSpec(
        route=make_chain_route(),
        n_days=n_days,
        mode_schedule=ModeMix(modes=((WALK, 1.0),), speed_jitter_frac=0.05),
        noise=NoiseParams(rssi_sigma_db=4.0, dropout_prob=0.03),
        depart_time_jitter_s=300,
    )


def mixture_scenario(n_days: int = 35) -> ScenarioSpec:
    """Walk/cycle mix with occasional pre-arrival detours."""
    walk_or_cycle = ModeMix(modes=((WALK, 0.5), (CYCLE, 0.5)), speed_jitter_frac=0.05)
    return replace(simple_walk_scenario(n_days), mode_schedule=walk_or_cycle, detour_prob=0.2)


def mining_scenario(n_days: int = 14) -> ScenarioSpec:
    """Small, fast scenario for home-AP mining runs."""
    return ScenarioSpec(
        route=make_chain_route(ap_count=4, duration_s=240, coverage_s=80, weak_bridge=False),
        n_days=n_days,
        mode_schedule=ModeMix(modes=((WALK, 1.0),), speed_jitter_frac=0.03),
        noise=NoiseParams(rssi_sigma_db=2.0, dropout_prob=0.02),
        depart_time_jitter_s=120,
    )


def relocation_scenario(move_day: int = 10, n_days: int = 16) -> ScenarioSpec:
    """The user moves house on ``move_day``; the home AP changes BSSID."""
    return replace(simple_walk_scenario(n_days), move_day=move_day)


def door_scenario(n_days: int = 30) -> ScenarioSpec:
    return simple_walk_scenario(n_days=n_days)


SCENARIO_PRESETS = {
    "simple": simple_walk_scenario,
    "mixture": mixture_scenario,
    "mining": mining_scenario,
    "relocation": relocation_scenario,
    "door": door_scenario,
}


# ---------------------------------------------------------------------------
# scenario files (INI-style key/value sections)

def _parse_sod(text: str) -> int:
    """A second of the day from ``HH:MM`` or from whole seconds in [0, 86400)."""
    text = text.strip()
    hh, colon, mm = text.partition(":")
    if colon:
        if not (hh.isdigit() and mm.isdigit() and int(hh) < 24 and int(mm) < 60):
            raise ValueError(f"time {text!r} is not HH:MM from 00:00 to 23:59")
        return int(hh) * 3600 + int(mm) * 60
    sod = int(text)
    if not 0 <= sod < DAY_S:
        raise ValueError(f"time {text!r} is not a second of the day in [0, {DAY_S})")
    return sod


def _parse_bool(name: str, text: str) -> bool:
    """A boolean word configparser knows (``1/yes/true/on``, ``0/no/false/off``)."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise ValueError(f"{name} = {text!r} is not one of 1/yes/true/on or 0/no/false/off")
    return value


def load_scenario(path) -> ScenarioSpec:
    """Read a scenario description file.

    Sections: [route] chain geometry, [modes] one ``name = factor weight``
    entry per mode plus ``speed_jitter``, [days] calendar and detours,
    [noise], [night], and an optional [relocation]; [DEFAULT] keys count as
    keys of every section.  ``weak_bridge`` takes the boolean words of
    configparser, and the last day must fall on or before ``date.max``.  A
    file that cannot be read or parsed, or holds a key nothing reads or a
    bad value, raises ConfigurationError naming it.
    """
    cp = configparser.ConfigParser()
    try:
        if cp.read(path):
            return _scenario_from_config(cp)
    except (ValueError, IndexError, KeyError, configparser.Error, TimelocError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else " ".join(str(exc).split())
        raise ConfigurationError(f"malformed scenario file {path!r}: {detail}") from None
    raise ConfigurationError(f"cannot read scenario file {path!r}")


def _scenario_from_config(cp: configparser.ConfigParser) -> ScenarioSpec:
    # Keys are popped where they are read; without a section, [DEFAULT] is one.
    sections = {name: dict(cp[name]) for name in cp.sections()} or {cp.default_section: dict(cp.defaults())}
    route_sec = sections.get("route", {})
    route = make_chain_route(
        ap_count=int(route_sec.pop("ap_count", 14)),
        duration_s=int(route_sec.pop("duration_s", 600)),
        coverage_s=int(route_sec.pop("coverage_s", 110)),
        peak_rssi_dbm=int(route_sec.pop("peak_rssi_dbm", -50)),
        weak_bridge=_parse_bool("[route] weak_bridge", route_sec.pop("weak_bridge", "true")),
        home_fix=GpsFix(
            float(route_sec.pop("home_lat", DEFAULT_HOME_FIX.lat_deg)),
            float(route_sec.pop("home_lon", DEFAULT_HOME_FIX.lon_deg)),
        ),
    )

    modes_sec = sections.get("modes", {})
    jitter = float(modes_sec.pop("speed_jitter", 0.0))
    modes = []
    for key in list(modes_sec):
        value = modes_sec.pop(key)
        parts = value.split()
        if len(parts) != 2:
            raise ValueError(f"[modes] {key} = {value!r} needs a speed factor and a weight and nothing else")
        modes.append((TransportMode(key, float(parts[0])), float(parts[1])))
    if not modes:
        modes = [(WALK, 1.0)]
    mode_schedule = ModeMix(modes=tuple(modes), speed_jitter_frac=jitter)

    days_sec = sections.get("days", {})
    noise_sec = sections.get("noise", {})
    night_sec = sections.get("night", {})

    night = NightDwellSpec(
        scan_period_s=int(night_sec.pop("scan_period_s", 600)),
        morning_depart_sod=_parse_sod(str(night_sec.pop("morning_depart", "08:00"))),
        neighbor_count=int(night_sec.pop("neighbor_count", 3)),
        neighbor_dwell_s=int(night_sec.pop("neighbor_dwell_s", 5400)),
    )

    move_day = int(sections["relocation"].pop("move_day")) if "relocation" in sections else None

    scenario = ScenarioSpec(
        route=route,
        n_days=int(days_sec.pop("n_days", 14)),
        mode_schedule=mode_schedule,
        detour_prob=float(days_sec.pop("detour_prob", 0.0)),
        detour_duration_s=int(days_sec.pop("detour_duration_s", 90)),
        noise=NoiseParams(
            rssi_sigma_db=float(noise_sec.pop("rssi_sigma_db", 4.0)),
            dropout_prob=float(noise_sec.pop("dropout_prob", 0.03)),
        ),
        depart_time_jitter_s=int(days_sec.pop("depart_jitter_s", 300)),
        night_dwell=night,
        depart_sod=_parse_sod(str(days_sec.pop("depart", "18:00"))),
        start_day=date.fromisoformat(str(days_sec.pop("start_day", "2024-01-01"))),
        move_day=move_day,
    )
    for name, unread in sections.items():
        for key in unread:
            raise ValueError(f"unknown key [{name}] {key}")
    return scenario


def resolve_scenario(name_or_path, n_days: int | None = None) -> ScenarioSpec:
    """Scenario from a file path or a preset name; optional day-count override.

    A name is read as a scenario file only when it names a regular file, so
    a directory called like a preset does not shadow the preset.
    """
    import os

    if isinstance(name_or_path, str) and not os.path.isfile(name_or_path):
        preset = SCENARIO_PRESETS.get(name_or_path)
        if preset is None:
            raise ConfigurationError(
                f"{name_or_path!r} is neither a file nor a preset "
                f"({', '.join(sorted(SCENARIO_PRESETS))})"
            )
        scenario = preset()
    else:
        scenario = load_scenario(name_or_path)
    if n_days is not None:
        scenario = replace(scenario, n_days=n_days)
    return scenario
