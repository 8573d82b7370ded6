"""Order statistics for latency samples, and the speed calibration kernel."""

from __future__ import annotations

import math
import time
from fractions import Fraction

# Percentiles op_tail_ms may report, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def rank(n: int, p: float) -> int:
    """Nearest-rank position (1-based) of percentile p among n sorted samples."""
    return max(1, math.ceil(p / 100.0 * n))


def beyond(n: int, p: float) -> int:
    """Samples strictly after the nearest-rank position of percentile p."""
    return n - rank(n, p)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with MIN_BEYOND samples beyond it.

    Falls back to the median when even that has fewer samples beyond it.
    """
    chosen = LADDER[0]
    for p in LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            chosen = p
    return chosen


def percentile(sorted_values, p: float) -> float:
    return sorted_values[rank(len(sorted_values), p) - 1]


# The host's cores are shared: plain wall time swings by up to 2x within a
# minute as neighbours come and go.  Every time the benchmark reports is
# therefore scaled by CAL_REF_S / (time of this kernel, run right after the
# timed work): a reading on a core as fast as the reference is left as
# measured, and one taken while a neighbour halves the core's speed is halved.
# The kernel is exact Fraction arithmetic, the same kind of work as effpcm's.
CAL_REF_S = 0.25e-3


def calibration_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    return total


def speed_factor() -> float:
    """CAL_REF_S over the faster of two back-to-back runs of the calibration kernel."""
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        calibration_kernel()
        runs.append(time.perf_counter() - start)
    return CAL_REF_S / min(runs)
