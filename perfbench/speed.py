"""Rescale measured times to a reference machine speed.

On a shared VM, other tenants slow the whole CPU by 20-30 % for seconds to
minutes at a time, which swamps any change worth measuring.  The clock times
a small fixed pure-Python kernel every CALIBRATE_EVERY_S while the benchmark
runs, and rescales each measured interval by REFERENCE_S over the median
kernel time near that interval.  A rescaled time reads "seconds at the speed
where the kernel takes REFERENCE_S"; the kernel lives in the benchmark, so a
change to the program cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# the kernel's time on an idle 2-core x86 VM running CPython 3.11
REFERENCE_S = 0.025
CALIBRATE_EVERY_S = 0.3
WINDOW_S = 0.4
MIN_NEARBY = 2


def reference_kernel():
    """Fixed work in the engine's style: a bitmask memo DP over dict lookups,
    and dict-based polynomial products with big integers."""
    memo = {0: 1}

    def extensions(s):
        try:
            return memo[s]
        except KeyError:
            pass
        total, m = 0, s
        while m:
            low = m & -m
            total += extensions(s ^ low)
            m ^= low
        memo[s] = total
        return total

    extensions((1 << 13) - 1)
    base = {e: 1 for e in range(-6, 7, 2)}
    acc = {0: 1}
    for _ in range(40):
        out = {}
        for e, c in acc.items():
            for f, d in base.items():
                out[e + f] = out.get(e + f, 0) + c * d
        acc = out
    return acc


class Clock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, kernel seconds)

    def calibrate(self):
        start = perf_counter()
        reference_kernel()
        end = perf_counter()
        self.samples.append(((start + end) / 2, end - start))

    def maybe_calibrate(self):
        if not self.samples or perf_counter() - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def kernel_s(self) -> float:
        return statistics.median(k for _, k in self.samples)

    def scale(self, start: float, end: float) -> float:
        """Factor for an interval: REFERENCE_S over the median kernel time of
        the samples within WINDOW_S of it (at least the MIN_NEARBY nearest)."""
        mid = (start + end) / 2
        reach = WINDOW_S + (end - start) / 2
        by_distance = sorted(self.samples, key=lambda s: abs(s[0] - mid))
        nearby = [k for t, k in by_distance if abs(t - mid) <= reach]
        if len(nearby) < MIN_NEARBY:
            nearby = [k for _, k in by_distance[:MIN_NEARBY]]
        return REFERENCE_S / statistics.median(nearby)

    def rescale(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
