"""CPU speed calibration for end-to-end times.

The shared 2-vCPU host the benchmark was written on changes speed by 30% and
more within a minute, with CPU time tracking wall time: one seed of
orbit_sweep rerun five times read 4.3 to 5.8 reports/s (quartile spread 19%
of the median).  Such drift would swamp any bound, so each command is
bracketed by a short fixed kernel of the same kind of work (Python float
loops, list indexing and calls), and its wall time is scaled by REFERENCE_S
over the mean kernel time around it.  On the same five reruns the scaled
throughput spread 4%, and the scaled p50 and p90 about 8%.  Raw wall times
are printed next to the scaled ones.  Set-up time is not scaled: import
work did not slow with the kernel.
"""

from __future__ import annotations

import time

# The kernel's time at the reference speed: scaled times read as wall times
# on a machine where kernel() takes this long.
REFERENCE_S = 400e-6


def _step(y):
    return [y[1] * 0.5 - y[0], y[0] * y[1] + 1.0]


def kernel() -> list[float]:
    """Fixed pure-Python work."""
    y = [0.1, 0.2]
    for _ in range(1500):
        k = _step(y)
        y = [y[0] + 1e-3 * k[0], y[1] + 1e-3 * k[1]]
    return y


def kernel_seconds(repeats: int = 3) -> float:
    """Fastest of a few kernel runs, so an interrupt does not count."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference(seconds: float, before: float, after: float) -> float:
    """Wall seconds scaled to the reference speed, given the kernel times around them."""
    return seconds * 2 * REFERENCE_S / (before + after)
