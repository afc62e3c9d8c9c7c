import cProfile
import dataclasses
import pstats
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloc import sensing_fsm
from timeloc import simulator as sim
from timeloc.sensing_fsm import (
    ACCEL_BURST_S,
    CONNECTED_RECORD_S,
    IDLE_PERIOD_S,
    SCAN_PERIOD_S,
    SLEEP_PERIOD_S,
    STABLE_CONNECTION_SCANS,
    Actions,
    EnvSnapshot,
    FsmDayRun,
    FsmState,
    SensingStats,
    StateTag,
    drive_day,
    fsm_step,
    in_gps_region,
    run_fsm_day,
)
from timeloc.simulator import M_PER_DEG_LAT
from timeloc.trace_model import (
    DAY_S,
    AccelSample,
    ApObservation,
    DayTrace,
    GpsFix,
    ScanRecord,
    day_id_for_ts,
    haversine_m,
)
from util import NOISE_VARIANTS, B, bss

HOME = B("aa:00:00:00:00:ff")
HOME_FIX = GpsFix(40.0, 116.0)


def env(fix=None, visible=(), connected=None):
    return EnvSnapshot(
        fix=fix,
        visible=tuple(ApObservation(b, -55) for b in visible),
        connected=connected,
        home_bssid=HOME,
        home_fix=HOME_FIX,
    )


def off_fix(meters):
    return GpsFix(HOME_FIX.lat_deg + meters / M_PER_DEG_LAT, HOME_FIX.lon_deg)


class TestGeofence:
    def test_same_point_inside(self):
        assert in_gps_region(HOME_FIX, HOME_FIX) is True

    def test_hundredth_degree_is_outside(self):
        far = GpsFix(HOME_FIX.lat_deg + 0.01, HOME_FIX.lon_deg)
        assert haversine_m(far, HOME_FIX) > 1000  # ~1112 m by the distance oracle
        assert in_gps_region(far, HOME_FIX) is False

    def test_boundary_is_inclusive(self):
        fix = off_fix(500.0)
        d = haversine_m(fix, HOME_FIX)
        while d > 500.0:  # shave float residue to sit exactly on the circle
            fix = GpsFix(
                HOME_FIX.lat_deg + (fix.lat_deg - HOME_FIX.lat_deg) * (1 - 1e-12),
                HOME_FIX.lon_deg,
            )
            d = haversine_m(fix, HOME_FIX)
        assert d > 499.999
        assert in_gps_region(fix, HOME_FIX) is True


class TestFsmStep:
    def test_idle_outside_region_stays_idle_for_a_minute(self):
        state = FsmState(StateTag.IDLE_CHECK, 1000)
        new, actions, wake = fsm_step(state, 1000, env(fix=off_fix(2000)))
        assert new.tag is StateTag.IDLE_CHECK
        assert wake == 1060
        assert actions.scan_wifi and actions.read_gps

    def test_idle_crossing_into_region_speeds_up(self):
        state = FsmState(StateTag.IDLE_CHECK, 1000)
        new, _, wake = fsm_step(state, 1000, env(fix=off_fix(400)))
        assert new.tag is StateTag.GPS_REGION_SCAN
        assert wake == 1005

    def test_idle_without_gps_does_not_read_gps(self):
        state = FsmState(StateTag.IDLE_CHECK, 1000)
        _, actions, _ = fsm_step(state, 1000, env())
        assert not actions.read_gps

    def test_home_scan_triggers_arrival_even_without_gps(self):
        state = FsmState(StateTag.IDLE_CHECK, 1000)
        new, _, wake = fsm_step(state, 1000, env(visible=[HOME]))
        assert new.tag is StateTag.HOME_ARRIVAL
        assert wake == 1001

    def test_region_scan_returns_to_idle_when_leaving(self):
        state = FsmState(StateTag.GPS_REGION_SCAN, 1000)
        new, _, _ = fsm_step(state, 1005, env(fix=off_fix(900)))
        assert new.tag is StateTag.IDLE_CHECK

    def test_arrival_becomes_connected_after_burst_with_stable_connection(self):
        state = FsmState(StateTag.HOME_ARRIVAL, 1000)
        now = 1000
        connected_env = env(visible=[HOME], connected=HOME)
        while now - 1000 <= 130:
            state, actions, wake = fsm_step(state, now, connected_env)
            if state.tag is StateTag.CONNECTED:
                break
            now = wake
        assert state.tag is StateTag.CONNECTED
        assert now - 1000 == 120  # the accelerometer burst runs its full course

    def test_accel_only_during_burst(self):
        state = FsmState(StateTag.HOME_ARRIVAL, 1000)
        _, actions, _ = fsm_step(state, 1001, env(visible=[HOME]))
        assert actions.sample_accel
        _, actions, _ = fsm_step(state, 1000 + 125, env(visible=[HOME]))
        assert not actions.sample_accel

    def test_connected_loss_reverts_to_idle(self):
        state = FsmState(StateTag.CONNECTED, 1000)
        new, _, _ = fsm_step(state, 1005, env(visible=[bss(2)], connected=None))
        assert new.tag is StateTag.IDLE_CHECK

    def test_connected_goes_to_sleep_after_recording(self):
        state = FsmState(StateTag.CONNECTED, 1000)
        new, _, wake = fsm_step(state, 1300, env(visible=[HOME], connected=HOME))
        assert new.tag is StateTag.SLEEP
        assert wake == 1300 + 1800

    def test_sleep_disconnect_reverts_to_idle(self):
        state = FsmState(StateTag.SLEEP, 1000)
        new, _, _ = fsm_step(state, 2800, env())
        assert new.tag is StateTag.IDLE_CHECK


AP_POOL = (HOME, bss(1), bss(2))
fixes = st.builds(
    GpsFix,
    st.floats(-90, 90, allow_nan=False),
    st.floats(-180, 180, allow_nan=False),
)
snapshots = st.builds(
    EnvSnapshot,
    # anywhere on Earth, or up to 1 km from home on either side of the geofence
    fix=st.none() | fixes | st.floats(0, 1000).map(off_fix),
    visible=st.lists(
        st.builds(ApObservation, st.sampled_from(AP_POOL), st.integers(-120, 0)), max_size=4
    ).map(tuple),
    connected=st.none() | st.sampled_from(AP_POOL),
    home_bssid=st.just(HOME),
    home_fix=st.just(HOME_FIX),
)
states = st.builds(
    FsmState,
    st.sampled_from(StateTag),
    st.integers(-(10**6), 10**6),
    st.integers(0, 5),
    st.integers(0, 3),
)


@settings(max_examples=500)
@given(states, st.integers(-10, 2 * SLEEP_PERIOD_S), snapshots)
def test_next_wake_is_always_later(state, elapsed, snapshot):
    """fsm_step schedules its next wake strictly after ``now`` from any state.

    ``now`` is drawn relative to the state's entry so that every timer
    threshold (burst, recording, sleep) is crossed in some example.
    """
    now = state.entered_at + elapsed
    _, _, next_wake = fsm_step(state, now, snapshot)
    assert next_wake > now


# ---------------------------------------------------------------------------
# reference: fsm_step when the snapshot carried GPS availability as a field of
# its own beside the fix, and each settled state had its own exit branch.
# The body is verbatim except that it collects the names of its actions in
# a set, which the wrapper turns into the flag triple; the snapshot it reads
# has gps_available = fix is not None, which is what the oracle reported.

READ_GPS, SCAN_WIFI, SAMPLE_ACCEL = Actions._fields


class _SnapshotWithAvailability:
    def __init__(self, env):
        self._env = env
        self.gps_available = env.fix is not None

    def __getattr__(self, name):
        return getattr(self._env, name)


def _reference_action_set_step(state, now, env):
    env = _SnapshotWithAvailability(env)
    tag = state.tag
    actions: set[str] = set()

    if tag in (StateTag.IDLE_CHECK, StateTag.GPS_REGION_SCAN):
        actions.add(SCAN_WIFI)
        if env.gps_available:
            actions.add(READ_GPS)
        if env.home_visible():
            return FsmState(StateTag.HOME_ARRIVAL, now), actions, now + 1
        inside = (
            env.gps_available
            and env.fix is not None
            and in_gps_region(env.fix, env.home_fix)
        )
        if tag is StateTag.IDLE_CHECK:
            if inside:
                return FsmState(StateTag.GPS_REGION_SCAN, now), actions, now + SCAN_PERIOD_S
            return state, actions, now + IDLE_PERIOD_S
        # region scan: fall back out only on a confident outside fix
        if env.gps_available and env.fix is not None and not inside:
            return FsmState(StateTag.IDLE_CHECK, now), actions, now + IDLE_PERIOD_S
        return state, actions, now + SCAN_PERIOD_S

    if tag is StateTag.HOME_ARRIVAL:
        elapsed = now - state.entered_at
        if elapsed < ACCEL_BURST_S:
            actions.add(SAMPLE_ACCEL)
        streak = state.conn_streak
        misses = state.miss_streak
        if elapsed % SCAN_PERIOD_S == 0:
            actions.add(SCAN_WIFI)
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

    if tag is StateTag.CONNECTED:
        actions.add(SCAN_WIFI)
        if env.connected != env.home_bssid:
            return FsmState(StateTag.IDLE_CHECK, now), actions, now + IDLE_PERIOD_S
        if now - state.entered_at >= CONNECTED_RECORD_S:
            return FsmState(StateTag.SLEEP, now), actions, now + SLEEP_PERIOD_S
        return state, actions, now + SCAN_PERIOD_S

    # SLEEP
    actions.add(SCAN_WIFI)
    if env.connected != env.home_bssid:
        return FsmState(StateTag.IDLE_CHECK, now), actions, now + IDLE_PERIOD_S
    return state, actions, now + SLEEP_PERIOD_S


def reference_fsm_step(state, now, env):
    new_state, action_set, wake = _reference_action_set_step(state, now, env)
    return new_state, Actions(*(name in action_set for name in Actions._fields)), wake


@settings(max_examples=500)
@given(
    st.builds(FsmState, st.sampled_from(sensing_fsm.CLOCK_FREE), st.integers(-(10**6), 10**6)),
    st.integers(-(10**6), 10**6),
    st.integers(1, 2 * DAY_S),
    snapshots,
)
def test_a_clock_free_step_does_not_depend_on_when_it_comes(state, now, delay, snapshot):
    """On the same readings, a clock-free state's step at ``now`` and at
    ``now + delay`` perform the same actions, wake the same time later and
    hand back the state object itself when it stays; this is what lets
    drive_day repeat a quiet wake without stepping it again."""
    new, actions, wake = fsm_step(state, now, snapshot)
    later, later_actions, later_wake = fsm_step(state, now + delay, snapshot)
    assert later_actions == actions and later_wake - (now + delay) == wake - now
    assert later.tag is new.tag
    assert (later is state) == (new is state)


TIMER_EDGES = [
    t + d for t in (0, ACCEL_BURST_S, CONNECTED_RECORD_S, SLEEP_PERIOD_S) for d in (-1, 0, 1)
]


@settings(max_examples=1000)
@given(states, st.sampled_from(TIMER_EDGES) | st.integers(-10, 2 * SLEEP_PERIOD_S), snapshots)
def test_fsm_step_matches_reference(state, elapsed, snapshot):
    """Same next state, actions and wake as the reference on every input,
    ``now`` drawn relative to the state's entry as above and often exactly
    on a timer's edge."""
    now = state.entered_at + elapsed
    assert fsm_step(state, now, snapshot) == reference_fsm_step(state, now, snapshot)


def test_fsm_step_matches_reference_on_every_timer_edge():
    edge_snapshots = [
        env(fix, visible, connected)
        for fix in (None, off_fix(0), off_fix(499), off_fix(501))
        for visible in ((), (bss(1),), (HOME, bss(1)))
        for connected in (None, HOME, bss(1))
    ]
    for tag in StateTag:
        for conn_streak in range(STABLE_CONNECTION_SCANS + 2):
            for miss_streak in range(3):
                state = FsmState(tag, 1000, conn_streak, miss_streak)
                for now in (1000 + t for t in TIMER_EDGES):
                    for snapshot in edge_snapshots:
                        expected = reference_fsm_step(state, now, snapshot)
                        assert fsm_step(state, now, snapshot) == expected


@pytest.fixture(scope="module")
def commute_run():
    plan = sim.make_day_plan(sim.simple_walk_scenario(), 0, 42)
    oracle = sim.DayOracle(plan)
    return oracle, drive_day(oracle)


class TestDayRun:
    def test_wakeups_always_advance(self, commute_run):
        oracle, run = commute_run
        # re-drive manually to watch the wake sequence
        state = FsmState(StateTag.IDLE_CHECK, oracle.slice_start)
        now = oracle.slice_start
        for _ in range(3000):
            state, _, wake = fsm_step(state, now, EnvSnapshot.at(oracle, now))
            assert wake >= now + 1
            now = wake
            if now >= oracle.slice_end:
                break

    def test_scan_budget_well_under_fixed_cadence(self, commute_run):
        _, run = commute_run
        # a fixed cadence scans every SCAN_PERIOD_S all day
        assert run.stats.wifi_scans <= 0.6 * (DAY_S // SCAN_PERIOD_S)

    def test_accel_samples_only_inside_home_arrival(self, commute_run):
        oracle, run = commute_run
        windows = []
        opened = None
        for ts, tag in run.transitions:
            if tag is StateTag.HOME_ARRIVAL:
                opened = ts
            elif opened is not None:
                windows.append((opened, ts))
                opened = None
        if opened is not None:
            windows.append((opened, oracle.slice_end))
        assert run.stats.accel_samples > 0
        for a in run.trace.accel:
            assert any(lo <= a.ts <= hi for lo, hi in windows)

    def test_sensed_trace_is_a_subview_of_the_oracle(self, commute_run):
        oracle, run = commute_run
        last = None
        for s in run.trace.scans:
            assert last is None or s.ts >= last
            last = s.ts
            assert s.aps == oracle.aps_at(s.ts)  # nothing fabricated

    def test_arrival_detected_close_to_ground_truth(self, commute_run):
        oracle, run = commute_run
        detected = min(
            (s.ts for s in run.trace.scans if any(o.bssid == oracle.home_bssid for o in s.aps)),
            default=None,
        )
        assert detected is not None
        assert 0 <= detected - oracle.arrival_ts <= 60

    def test_stats_match_trace_contents(self, commute_run):
        _, run = commute_run
        assert run.stats.wifi_scans == len(run.trace.scans)
        assert run.stats.accel_samples == len(run.trace.accel)


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(["simple", "mining", "mixture", "relocation"]),
    seed=st.integers(0, 2**32 - 1),
    day=st.integers(0, 40),
)
def test_sensed_trace_is_a_subview_of_the_full_rate_trace(preset, seed, day):
    plan = sim.make_day_plan(sim.SCENARIO_PRESETS[preset](), day, seed)
    oracle = sim.DayOracle(plan)
    sensed = drive_day(oracle).trace
    full, _ = sim.synth_plan_day(plan)
    full_at = {s.ts: s for s in full.scans}
    for s in sensed.scans:
        assert s.aps == oracle.aps_at(s.ts)
        if s.ts in full_at:
            assert s == full_at[s.ts]


def test_a_commute_day_sleeps_at_thirty_minute_cadence():
    oracle = sim.DayOracle(sim.make_day_plan(sim.simple_walk_scenario(), 0, 42))
    run = drive_day(oracle)
    assert [t.value for _, t in run.transitions] == [
        "IdleCheck",
        "GpsRegionScan",
        "HomeArrival",
        "Connected",
        "Sleep",
        "IdleCheck",
    ]
    sleep_entry, wake = (ts for ts, _ in run.transitions[-2:])
    # the scan that enters sleep, one per 30-minute wake, and the wake that
    # finds the connection gone after the morning departure
    asleep = [s.ts for s in run.trace.scans if sleep_entry <= s.ts <= wake]
    assert asleep == list(range(sleep_entry, wake + 1, SLEEP_PERIOD_S))
    assert len(asleep) == 29
    assert oracle.morning_depart_ts <= wake < oracle.morning_depart_ts + SLEEP_PERIOD_S


class NoGpsOracle(sim.DayOracle):
    """A simulated day on which GPS never has a fix."""

    def gps_at(self, ts):
        return None


def test_gps_disabled_day_still_reaches_home_arrival():
    run = drive_day(NoGpsOracle(sim.make_day_plan(sim.simple_walk_scenario(), 0, 42)))
    tags = {tag for _, tag in run.transitions}
    assert StateTag.HOME_ARRIVAL in tags
    assert run.stats.gps_reads == 0


def test_run_fsm_day_wrapper_returns_trace_and_stats():
    plan = sim.make_day_plan(sim.simple_walk_scenario(), 0, 8)
    trace, stats = run_fsm_day(sim.DayOracle(plan))
    assert stats.wifi_scans == len(trace.scans)
    assert stats.wakeups >= stats.wifi_scans


# ---------------------------------------------------------------------------
# reference: drive_day when every wake built a full EnvSnapshot, reading GPS,
# WiFi and the connection from the oracle whatever the state.  The bodies
# are verbatim except that the counters live in a mutable stand-in, since
# SensingStats is now built once at the end of the day, and that each
# action is tested as a flag of the triple instead of by set membership.


@dataclasses.dataclass(slots=True)
class _Counters:
    wifi_scans: int = 0
    gps_reads: int = 0
    accel_samples: int = 0
    wakeups: int = 0


def reference_snapshot_from_oracle(oracle, ts):
    return EnvSnapshot(
        fix=oracle.gps_at(ts),
        visible=oracle.aps_at(ts),
        connected=oracle.connected_at(ts),
        home_bssid=oracle.home_bssid,
        home_fix=oracle.home_fix,
    )


def reference_drive_day(oracle):
    start = oracle.slice_start
    end = start + DAY_S
    state = FsmState(StateTag.IDLE_CHECK, start)
    stats = _Counters()
    scans = []
    accel = []
    transitions = [(start, state.tag)]

    now = start
    while now < end:
        env = reference_snapshot_from_oracle(oracle, now)
        new_state, actions, next_wake = fsm_step(state, now, env)
        if next_wake <= now:
            raise RuntimeError("state machine scheduled a non-advancing wake")
        stats.wakeups += 1
        if actions.read_gps:
            stats.gps_reads += 1
        if actions.scan_wifi:
            stats.wifi_scans += 1
            gps = env.fix if actions.read_gps else None
            scans.append(ScanRecord.recorded(now, gps, env.connected, env.visible))
        if actions.sample_accel:
            stats.accel_samples += 1
            accel.append(AccelSample(now, oracle.accel_at(now)))
        if new_state.tag != state.tag:
            transitions.append((now, new_state.tag))
        state = new_state
        now = next_wake

    trace = DayTrace(day_id_for_ts(start), tuple(scans), tuple(accel))
    stats = SensingStats(**dataclasses.asdict(stats))
    return FsmDayRun(trace=trace, stats=stats, transitions=tuple(transitions))


# days 9-11 straddle the relocation preset's move; 40 lies past every preset's length
_DAYS = (0, 9, 10, 11, 40)


@pytest.mark.parametrize("preset", sorted(sim.SCENARIO_PRESETS))
def test_drive_day_matches_reference(preset):
    """Same sensed trace (scans and accelerometer samples), stats and
    transitions as the reference on days of every preset at several seeds."""
    scenario = sim.SCENARIO_PRESETS[preset]()
    for seed in (0, 3, 42):
        for day in _DAYS:
            plan = sim.make_day_plan(scenario, day, seed)
            assert drive_day(sim.DayOracle(plan)) == reference_drive_day(sim.DayOracle(plan))


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(sorted(sim.SCENARIO_PRESETS)),
    seed=st.integers(0, 2**32 - 1),
    day=st.integers(0, 40),
    noise=st.sampled_from(sorted(NOISE_VARIANTS)),
    oracle_type=st.sampled_from([sim.DayOracle, NoGpsOracle]),
)
def test_drive_day_matches_reference_on_any_day(preset, seed, day, noise, oracle_type):
    """As above on any preset day, seed and noise variant, with or without GPS."""
    plan = sim.make_day_plan(sim.SCENARIO_PRESETS[preset](), day, seed)
    plan = dataclasses.replace(plan, noise=NOISE_VARIANTS[noise](plan.noise))
    assert drive_day(oracle_type(plan)) == reference_drive_day(oracle_type(plan))


class CountingOracle(sim.DayOracle):
    """A DayOracle that logs each sensor read as ``(ts, sensor)``."""

    def __init__(self, plan):
        super().__init__(plan)
        self.reads = []

    def gps_at(self, ts):
        self.reads.append((ts, "gps"))
        return super().gps_at(ts)

    def aps_at(self, ts):
        self.reads.append((ts, "aps"))
        return super().aps_at(ts)

    def connected_at(self, ts):
        self.reads.append((ts, "connected"))
        return super().connected_at(ts)

    def accel_at(self, ts):
        self.reads.append((ts, "accel"))
        return super().accel_at(ts)


@pytest.mark.parametrize("preset", sorted(sim.SCENARIO_PRESETS))
def test_a_wake_reads_only_what_it_decides_on_or_records(preset, monkeypatch):
    """GPS is read once per idle-check or region-scan wake, WiFi and the
    connection once per scan, the accelerometer once per sample; a home
    arrival wake that does not scan reads no GPS, WiFi or connection; and no
    wake reads a sensor twice.  A clock-free wake at which the oracle is
    quiet is stepped once, and it and every wake that repeats it before the
    quiet stretch ends read no sensor and record an empty scan."""
    wakes = []

    def logged_step(state, now, env):
        result = fsm_step(state, now, env)
        wakes.append((now, state.tag, result[1], result[2]))
        return result

    monkeypatch.setattr(sensing_fsm, "fsm_step", logged_step)
    scenario = sim.SCENARIO_PRESETS[preset]()
    quiet_arrival_wakes = fast_forwarded_total = 0
    for seed in (0, 3):
        for day in (0, 10, 11):
            wakes.clear()
            oracle = CountingOracle(sim.make_day_plan(scenario, day, seed))
            run = drive_day(oracle)
            reads = Counter(oracle.reads)
            assert max(reads.values()) == 1  # no wake reads a sensor twice
            sensors_at = {}
            for ts, sensor in reads:
                sensors_at.setdefault(ts, set()).add(sensor)
            assert set(sensors_at) <= {now for now, *_ in wakes}
            scan_at = {s.ts: s for s in run.trace.scans}
            fast_forwarded = quiet_scans = 0
            for now, tag, actions, next_wake in wakes:
                if tag in sensing_fsm.CLOCK_FREE and oracle.quiet_until(now) > now:
                    assert actions.scan_wifi
                    stretch = range(now, min(oracle.quiet_until(now), oracle.slice_end), next_wake - now)
                    for t in stretch:
                        assert t not in sensors_at, (seed, day, t)
                        assert oracle.quiet_until(t) > t
                        assert scan_at[t] == ScanRecord(t, None, None, ())
                    fast_forwarded += len(stretch) - 1
                    quiet_scans += len(stretch)
                    continue
                expected = set()
                if tag in (StateTag.IDLE_CHECK, StateTag.GPS_REGION_SCAN):
                    expected.add("gps")
                if actions.scan_wifi:
                    expected |= {"aps", "connected"}
                if actions.sample_accel:
                    expected.add("accel")
                assert sensors_at.get(now, set()) == expected, (seed, day, now, tag)
                if tag is StateTag.HOME_ARRIVAL and not actions.scan_wifi:
                    quiet_arrival_wakes += 1
            sensed = sum(1 for _, sensor in reads if sensor == "aps")
            assert sensed == sum(1 for _, sensor in reads if sensor == "connected")
            assert sensed + quiet_scans == run.stats.wifi_scans == len(run.trace.scans)
            assert run.stats.wakeups == len(wakes) + fast_forwarded
            fast_forwarded_total += fast_forwarded
    assert quiet_arrival_wakes > 0
    assert fast_forwarded_total > 0


def test_drive_day_hashes_no_action():
    """Each wake reads its action flags from a triple and hashes no enum
    member, whose Enum.__hash__ runs in Python."""
    oracle = sim.DayOracle(sim.make_day_plan(sim.simple_walk_scenario(), 0, 42))
    profiler = cProfile.Profile()
    profiler.runcall(drive_day, oracle)
    stats = pstats.Stats(profiler).stats
    hashes = {
        caller[2]: calls[1]
        for (path, _, name), (_, _, _, _, callers) in stats.items()
        if name == "__hash__" and path.endswith("enum.py")
        for caller, calls in callers.items()
    }
    assert "drive_day" not in hashes
