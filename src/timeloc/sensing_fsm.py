"""Duty-cycled sensing state machine and its scan-count battery proxy.

Cadence policy: an idle check every 60 s; WiFi scanning every
``SCAN_PERIOD_S`` (5 s) inside the 500 m home geofence; a 120 s
accelerometer burst once the home BSSID is scanned; a 300 s recording
window once the connection is stable; then sleep with 30-minute wakes.  GPS
is available exactly when there is a fix; only a fix moves the machine into
or out of the geofence.  Losing the home connection from any settled state
drops back to the idle check.  WiFi scan results are constant within one
second (observations are keyed per whole second), so the 1 s minimum wake
interval never yields conflicting scans.

The day runner drives the machine against a simulator oracle and returns
the sensed trace (a sub-view of what full-rate sampling would have seen)
plus counters that stand in for battery cost.  A wake reads from the oracle
only what the machine decides on or records, and a quiet idle stretch reads
nothing: where the oracle's ``quiet_until`` says no AP source, fix or
connection comes before a later second, a clock-free state that one step on
the empty readings hands back unchanged repeats that wake at the same
period, so the runner records those wakes at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .trace_model import (
    DAY_S,
    SCAN_PERIOD_S,
    AccelSample,
    ApObservation,
    Bssid,
    DayTrace,
    GpsFix,
    ScanRecord,
    day_id_for_ts,
    haversine_m,
)

GEOFENCE_RADIUS_M = 500.0
IDLE_PERIOD_S = 60
ACCEL_BURST_S = 120
CONNECTED_RECORD_S = 300
SLEEP_PERIOD_S = 1800
STABLE_CONNECTION_SCANS = 3


class StateTag(enum.Enum):
    IDLE_CHECK = "IdleCheck"
    GPS_REGION_SCAN = "GpsRegionScan"
    HOME_ARRIVAL = "HomeArrival"
    CONNECTED = "Connected"
    SLEEP = "Sleep"


class Actions(NamedTuple):
    """What one wake does, as three flags."""

    read_gps: bool
    scan_wifi: bool
    sample_accel: bool


# Every action triple a wake can perform, built once: fsm_step hands these out.
_NO_ACTIONS = Actions(False, False, False)
_SCAN = Actions(False, True, False)
_SCAN_GPS = Actions(True, True, False)
_ACCEL = Actions(False, False, True)
_SCAN_ACCEL = Actions(False, True, True)


@dataclass(frozen=True, slots=True)
class FsmState:
    tag: StateTag
    entered_at: int
    conn_streak: int = 0
    miss_streak: int = 0


@dataclass(frozen=True, slots=True)
class SensingStats:
    """One day's sensing counters; the scan count is the battery proxy."""

    wifi_scans: int
    gps_reads: int
    accel_samples: int
    wakeups: int


class EnvSnapshot:
    """What the sensors report at one second: given as values, or bound to an
    oracle and a second by ``at``, which reads each of ``fix``, ``visible``
    and ``connected`` on first use and keeps it."""

    __slots__ = ("_fix", "_visible", "_connected", "home_bssid", "home_fix", "_oracle", "_ts")

    def __init__(self, fix, visible, connected, home_bssid: Bssid, home_fix: GpsFix):
        self._fix, self._visible, self._connected = fix, visible, connected
        self.home_bssid, self.home_fix = home_bssid, home_fix

    @classmethod
    def at(cls, oracle, ts: int) -> EnvSnapshot:
        env = cls(..., ..., ..., oracle.home_bssid, oracle.home_fix)  # ``...``: not read yet
        env._oracle, env._ts = oracle, ts
        return env

    @property
    def fix(self) -> GpsFix | None:
        if self._fix is ...:
            self._fix = self._oracle.gps_at(self._ts)
        return self._fix

    @property
    def visible(self) -> tuple[ApObservation, ...]:
        if self._visible is ...:
            self._visible = self._oracle.aps_at(self._ts)
        return self._visible

    @property
    def connected(self) -> Bssid | None:
        if self._connected is ...:
            self._connected = self._oracle.connected_at(self._ts)
        return self._connected

    def home_visible(self) -> bool:
        return any(o.bssid == self.home_bssid for o in self.visible)


def in_gps_region(fix: GpsFix, home_fix: GpsFix) -> bool:
    """True inside (or exactly on) the home-centered geofence circle."""
    return haversine_m(fix, home_fix) <= GEOFENCE_RADIUS_M


# The states whose step reads no clock except to stamp a transition: on the
# same readings their wake repeats at the same period whenever it comes.
CLOCK_FREE = (StateTag.IDLE_CHECK, StateTag.GPS_REGION_SCAN)


def fsm_step(state: FsmState, now: int, env: EnvSnapshot) -> tuple[FsmState, Actions, int]:
    """One wake of the machine: actions to perform now, next state, next wake.

    next_wake always exceeds ``now`` by at least one second.
    """
    tag = state.tag

    if tag in CLOCK_FREE:
        actions = _SCAN if env.fix is None else _SCAN_GPS
        if env.home_visible():
            return FsmState(StateTag.HOME_ARRIVAL, now), actions, now + 1
        # a fix places the phone inside or outside the geofence; without
        # one the machine keeps its state
        if env.fix is None:
            target = tag
        elif in_gps_region(env.fix, env.home_fix):
            target = StateTag.GPS_REGION_SCAN
        else:
            target = StateTag.IDLE_CHECK
        period = SCAN_PERIOD_S if target is StateTag.GPS_REGION_SCAN else IDLE_PERIOD_S
        return (state if target is tag else FsmState(target, now)), actions, now + period

    if tag is StateTag.HOME_ARRIVAL:
        elapsed = now - state.entered_at
        sampling = elapsed < ACCEL_BURST_S
        actions = _ACCEL if sampling else _NO_ACTIONS
        streak = state.conn_streak
        misses = state.miss_streak
        if elapsed % SCAN_PERIOD_S == 0:
            actions = _SCAN_ACCEL if sampling else _SCAN
            connected_home = env.connected == env.home_bssid
            misses = 0 if env.home_visible() else misses + 1
            # one missed scan is dropout, not a departure
            if misses >= 2 and not connected_home:
                return FsmState(StateTag.IDLE_CHECK, now), actions, now + IDLE_PERIOD_S
            streak = streak + 1 if connected_home else 0
        if elapsed >= ACCEL_BURST_S and streak >= STABLE_CONNECTION_SCANS:
            return FsmState(StateTag.CONNECTED, now), actions, now + SCAN_PERIOD_S
        wake = now + 1 if elapsed + 1 <= ACCEL_BURST_S else now + SCAN_PERIOD_S
        return FsmState(tag, state.entered_at, streak, misses), actions, wake

    # CONNECTED or SLEEP: both settled states leave the same way
    if env.connected != env.home_bssid:
        return FsmState(StateTag.IDLE_CHECK, now), _SCAN, now + IDLE_PERIOD_S
    if tag is StateTag.SLEEP:
        return state, _SCAN, now + SLEEP_PERIOD_S
    if now - state.entered_at >= CONNECTED_RECORD_S:
        return FsmState(StateTag.SLEEP, now), _SCAN, now + SLEEP_PERIOD_S
    return state, _SCAN, now + SCAN_PERIOD_S


@dataclass(frozen=True, slots=True)
class FsmDayRun:
    trace: DayTrace
    stats: SensingStats
    transitions: tuple[tuple[int, StateTag], ...]


def drive_day(oracle) -> FsmDayRun:
    """Run the machine over one simulated day and collect the sensed trace.

    ``oracle`` reads its sensors through ``gps_at``, ``aps_at``,
    ``connected_at`` and ``accel_at``, and its ``quiet_until(ts)`` must
    never pass a second at which GPS, WiFi or the connection reads something.
    """
    start = oracle.slice_start
    end = start + DAY_S
    state = FsmState(StateTag.IDLE_CHECK, start)
    scans: list[ScanRecord] = []
    accel: list[AccelSample] = []
    transitions: list[tuple[int, StateTag]] = [(start, state.tag)]
    gps_reads = wakeups = 0

    # what GPS, WiFi and the connection read while the oracle is quiet
    quiet = EnvSnapshot(None, (), None, oracle.home_bssid, oracle.home_fix)
    now = start
    while now < end:
        if state.tag in CLOCK_FREE and (quiet_end := oracle.quiet_until(now)) > now:
            new_state, (gps, scan, sample), next_wake = fsm_step(state, now, quiet)
            if new_state is state:
                # a fixed point: this wake repeats at the same period until
                # the oracle can read something again, so record them at once
                wakes = range(now, quiet_end, next_wake - now)
                wakeups += len(wakes)
                gps_reads += gps * len(wakes)
                if scan:
                    scans.extend([ScanRecord(t, None, None, ()) for t in wakes])
                if sample:
                    accel.extend([AccelSample(t, oracle.accel_at(t)) for t in wakes])
                now = wakes[-1] + wakes.step
                continue
        env = EnvSnapshot.at(oracle, now)
        new_state, (gps, scan, sample), next_wake = fsm_step(state, now, env)
        if next_wake <= now:
            raise RuntimeError("state machine scheduled a non-advancing wake")
        wakeups += 1
        gps_reads += gps
        if scan:
            fix = env.fix if gps else None
            scans.append(ScanRecord.recorded(now, fix, env.connected, env.visible))
        if sample:
            accel.append(AccelSample(now, oracle.accel_at(now)))
        if new_state.tag is not state.tag:
            transitions.append((now, new_state.tag))
        state = new_state
        now = next_wake

    trace = DayTrace(day_id_for_ts(start), tuple(scans), tuple(accel))
    stats = SensingStats(len(scans), gps_reads, len(accel), wakeups)
    return FsmDayRun(trace=trace, stats=stats, transitions=tuple(transitions))


def run_fsm_day(oracle):
    """Sensed DayTrace plus sensing counters for one simulated day."""
    run = drive_day(oracle)
    return run.trace, run.stats
