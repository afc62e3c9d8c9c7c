"""Small builders shared by the test modules."""

from __future__ import annotations

from dataclasses import replace
from datetime import date

from hypothesis import strategies as st

from timeloc.simulator import SCENARIO_PRESETS, ModeMix, NoiseParams, ScenarioSpec, make_day_plan, synth_plan_day
from timeloc.trace_model import (
    AccelSample,
    ApObservation,
    Bssid,
    DayTrace,
    GpsFix,
    ScanRecord,
    day_slice_start,
)

DAY = date(2024, 1, 1)
SLICE = day_slice_start(DAY)
NIGHT_START = SLICE + 32_400   # 21:00
NIGHT_END = SLICE + 64_800     # 06:00 next morning


# ways to vary a preset day's noise: as it is, without one noise source, or none
NOISE_VARIANTS = {
    "preset": lambda n: n,
    "no-sigma": lambda n: replace(n, rssi_sigma_db=0.0),
    "no-dropout": lambda n: replace(n, dropout_prob=0.0),
    "noiseless": lambda n: NoiseParams(),
}


@st.composite
def day_plans(draw):
    """A plan for any preset day and noise variant."""
    preset = draw(st.sampled_from(sorted(SCENARIO_PRESETS)))
    plan = make_day_plan(SCENARIO_PRESETS[preset](), draw(st.integers(0, 40)), draw(st.integers(0, 2**32 - 1)))
    return replace(plan, noise=NOISE_VARIANTS[draw(st.sampled_from(sorted(NOISE_VARIANTS)))](plan.noise))


def B(text: str) -> Bssid:
    return Bssid(text)


def bss(i: int) -> Bssid:
    return Bssid(f"02:00:00:00:00:{i:02x}")


def scan(ts, rssi_by_bssid, gps=None, conn=None) -> ScanRecord:
    aps = tuple(ApObservation(b, r) for b, r in sorted(rssi_by_bssid.items()))
    return ScanRecord(ts=ts, gps=gps, connected=conn, aps=aps)


def trace(scans, accel=(), day=DAY) -> DayTrace:
    return DayTrace(day_id=day, scans=tuple(scans), accel=tuple(accel))


def accel(ts, mag) -> AccelSample:
    return AccelSample(ts, mag)


def fix(lat, lon) -> GpsFix:
    return GpsFix(lat, lon)


def commute_day(route, mode, noise, seed):
    """Day 0 of a one-mode scenario on ``route``: leave at 18:00, no detour,
    the door opened 30 s after arrival, rendered at full scan rate."""
    scenario = ScenarioSpec(route, 1, ModeMix(((mode, 1.0),)), noise=noise)
    plan = make_day_plan(scenario, 0, seed)
    return synth_plan_day(replace(plan, door_delay_s=30))
