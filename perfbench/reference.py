"""A fixed pure-Python job that gauges how fast the machine runs right now.

The benchmark's host is a few shared cores whose speed swings by up to 2x
within seconds to minutes, and the swing is common to all interpreter-bound
code.  ``Gauge`` therefore runs a short block of this job between a pass's
operations, about every ``SEGMENT_S`` seconds of work, and divides each
segment of work by the mean of the two blocks around it.  Summed over a
pass, that gives the pass's time on a machine on which one block takes
``NOMINAL_S`` seconds (a 2-vCPU Xeon VM at full speed).  In a 5-minute probe
on that VM, medians of wall time over 25-second windows spread by 0.23-0.34
(IQR over median); with a block around every 0.3 s of work they spread by
0.03-0.06.  The interleaving must be that fine: the swings are partly
faster than a 3-second pass, and one block per pass leaves them in.  The
job never calls timeloc, so a change to timeloc moves the normalised times
as much as the wall times.

The job mixes 64-bit integer hashing and float math (like the simulator's
keyed draws), small frozen objects, tuple-keyed dict tallies, sorting and
string formatting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

UNITS = 32
NOMINAL_S = 0.06
SEGMENT_S = 0.4
_M64 = (1 << 64) - 1


@dataclass(frozen=True, slots=True)
class _Obs:
    key: str
    level: float


def _mix(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _unit(seed: int) -> float:
    tally: dict[tuple[str, int], float] = {}
    for i in range(600):
        z = _mix(seed * 0x9E3779B97F4A7C15 + i)
        u = ((z >> 11) + 1) / (2**53 + 1)
        obs = _Obs(f"{z & 0xFF:02x}:{(z >> 8) & 0x3F:02x}", -40.0 - 50.0 * math.sqrt(-math.log(u)))
        key = (obs.key, i // 60)
        tally[key] = tally.get(key, 0.0) + obs.level
    ranked = sorted(tally.items(), key=lambda kv: (kv[1], kv[0]))
    return sum(level for _, level in ranked[:50]) + len(",".join(k for (k, _), _ in ranked))


def reference_block() -> float:
    """Wall time in seconds of one fixed block of the reference job."""
    t0 = time.perf_counter()
    check = sum(_unit(seed) for seed in range(UNITS))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(check):
        raise RuntimeError("reference job produced a non-finite checksum")
    return elapsed


class Gauge:
    """Times one pass with reference blocks between its operations.

    The pass calls ``start`` where its timing begins, ``tick`` between
    operations and ``finish`` where its timing ends; the reference blocks
    never fall inside an operation, and their time is not the pass's.  A
    disabled gauge runs no blocks, as the traced passes need.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled

    def start(self) -> None:
        self.wall_s = self.norm_s = 0.0
        self.ref_s = reference_block() if self.enabled else 0.0
        self.seg_start = time.perf_counter()

    def tick(self, last: bool = False) -> None:
        seg = time.perf_counter() - self.seg_start
        if not (last or self.enabled and seg >= SEGMENT_S):
            return
        self.wall_s += seg
        if self.enabled:
            ref = reference_block()
            self.norm_s += seg * NOMINAL_S * 2 / (self.ref_s + ref)
            self.ref_s = ref
        self.seg_start = time.perf_counter()

    def finish(self) -> tuple[float, float]:
        """The pass's wall time and its normalised time (its wall time when
        the gauge is disabled)."""
        self.tick(last=True)
        return self.wall_s, self.norm_s if self.enabled else self.wall_s
