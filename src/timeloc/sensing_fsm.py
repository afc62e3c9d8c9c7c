"""Duty-cycled sensing state machine and its scan-count battery proxy.

Cadence policy: an idle check every 60 s; WiFi scanning every
``SCAN_PERIOD_S`` (5 s) inside the 500 m home geofence; a 120 s accelerometer burst once the home BSSID is
scanned; a 300 s recording window once the connection is stable; then
sleep with 30-minute wakes.  GPS is available exactly when there is a
fix; only a fix moves the machine into or out of the geofence.  Losing the
home connection from any settled state drops back to the idle check.  WiFi
scan results are constant within one second (observations are keyed per
whole second), so the 1 s minimum wake interval never yields conflicting
scans.

The day runner drives the machine against a simulator oracle and returns
the sensed trace (a sub-view of what full-rate sampling would have seen)
plus counters that stand in for battery cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


class Action(enum.Enum):
    SCAN_WIFI = "ScanWifi"
    READ_GPS = "ReadGps"
    SAMPLE_ACCEL = "SampleAccel"


# Every action set a wake can perform, built once: fsm_step hands these out.
_NO_ACTIONS: frozenset[Action] = frozenset()
_SCAN = frozenset({Action.SCAN_WIFI})
_SCAN_GPS = frozenset({Action.SCAN_WIFI, Action.READ_GPS})
_ACCEL = frozenset({Action.SAMPLE_ACCEL})
_SCAN_ACCEL = frozenset({Action.SCAN_WIFI, Action.SAMPLE_ACCEL})


@dataclass(frozen=True, slots=True)
class FsmState:
    tag: StateTag
    entered_at: int
    conn_streak: int = 0
    miss_streak: int = 0


@dataclass(slots=True)
class SensingStats:
    """Monotone counters; the scan count is the battery proxy."""

    wifi_scans: int = 0
    gps_reads: int = 0
    accel_samples: int = 0
    wakeups: int = 0


@dataclass(frozen=True, slots=True)
class EnvSnapshot:
    """What the sensors would report right now, as queried from an oracle."""

    fix: GpsFix | None
    visible: tuple[ApObservation, ...]
    connected: Bssid | None
    home_bssid: Bssid
    home_fix: GpsFix

    def home_visible(self) -> bool:
        return any(o.bssid == self.home_bssid for o in self.visible)


def in_gps_region(fix: GpsFix, home_fix: GpsFix) -> bool:
    """True inside (or exactly on) the home-centered geofence circle."""
    return haversine_m(fix, home_fix) <= GEOFENCE_RADIUS_M


def fsm_step(
    state: FsmState, now: int, env: EnvSnapshot
) -> tuple[FsmState, frozenset[Action], int]:
    """One wake of the machine: actions to perform now, next state, next wake.

    next_wake always exceeds ``now`` by at least one second.
    """
    tag = state.tag

    if tag in (StateTag.IDLE_CHECK, StateTag.GPS_REGION_SCAN):
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


def snapshot_from_oracle(oracle, ts: int) -> EnvSnapshot:
    return EnvSnapshot(
        fix=oracle.gps_at(ts),
        visible=oracle.aps_at(ts),
        connected=oracle.connected_at(ts),
        home_bssid=oracle.home_bssid,
        home_fix=oracle.home_fix,
    )


@dataclass(frozen=True, slots=True)
class FsmDayRun:
    trace: DayTrace
    stats: SensingStats
    transitions: tuple[tuple[int, StateTag], ...]


def drive_day(oracle) -> FsmDayRun:
    """Run the machine over one simulated day and collect the sensed trace."""
    start = oracle.slice_start
    end = start + DAY_S
    state = FsmState(StateTag.IDLE_CHECK, start)
    stats = SensingStats()
    scans: list[ScanRecord] = []
    accel: list[AccelSample] = []
    transitions: list[tuple[int, StateTag]] = [(start, state.tag)]

    now = start
    while now < end:
        env = snapshot_from_oracle(oracle, now)
        new_state, actions, next_wake = fsm_step(state, now, env)
        if next_wake <= now:
            raise RuntimeError("state machine scheduled a non-advancing wake")
        stats.wakeups += 1
        if Action.READ_GPS in actions:
            stats.gps_reads += 1
        if Action.SCAN_WIFI in actions:
            stats.wifi_scans += 1
            gps = env.fix if Action.READ_GPS in actions else None
            scans.append(ScanRecord.recorded(now, gps, env.connected, env.visible))
        if Action.SAMPLE_ACCEL in actions:
            stats.accel_samples += 1
            accel.append(AccelSample(now, oracle.accel_at(now)))
        if new_state.tag != state.tag:
            transitions.append((now, new_state.tag))
        state = new_state
        now = next_wake

    trace = DayTrace(day_id_for_ts(start), tuple(scans), tuple(accel))
    return FsmDayRun(trace=trace, stats=stats, transitions=tuple(transitions))


def run_fsm_day(oracle):
    """Sensed DayTrace plus sensing counters for one simulated day."""
    run = drive_day(oracle)
    return run.trace, run.stats
