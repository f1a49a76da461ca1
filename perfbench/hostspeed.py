"""Host-speed calibration.

On a 2-vCPU Xeon virtual machine with no other load of its own, the same
pure-Python loop took anywhere from 0.09 to 0.14 s within a minute, and raw
times of identical work spread by 0.17 to 0.35 (quartile distance over
median) across ten runs.  Each timed piece of work is therefore bracketed by
a fixed calibration loop and reported in calibrated seconds: raw seconds
times REFERENCE_S over the mean of the two calibration times around it.  On a host whose loop takes REFERENCE_S, calibrated and raw
seconds agree.  Raw times are kept next to the calibrated ones in the run
details.  The correction needs many short instances: one nine-second
instance calibrated only before and after still spread 0.12 to 0.19
(quartile distance over median, five to ten runs).
"""

from __future__ import annotations

import time

LOOPS = 40_000
REPEATS = 3
REFERENCE_S = 0.004


def calibrate() -> float:
    """Seconds this process takes for the fixed loop right now.

    The fastest of a few repeats, so that one interrupt does not count.
    """
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(LOOPS):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(raw_s: float, before_s: float, after_s: float) -> float:
    return raw_s * REFERENCE_S * 2 / (before_s + after_s)
