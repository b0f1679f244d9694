"""Machine-speed calibration for timings taken on a shared, drifting host.

On the host the baseline was measured on, the same work runs up to twice as
slow for stretches of ten seconds or more, because of other tenants.  A
SpeedProbe samples the current speed all through a measurement: a timer
signal every INTERVAL_S runs a fixed piece of Fraction arithmetic (the same
kind of work as taftlab's scalar layer) and records how long it took.  A
job's calibrated time is its wall time, less the time spent in the probe,
scaled by the mean of NOMINAL_S over each reference time sampled while the
job ran.
It reads as seconds at the speed where one reference chunk takes NOMINAL_S,
so drift cancels out while a slower or faster program still shows.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.025
STEPS = 60
# median reference-chunk time on the baseline machine (see README.md)
NOMINAL_S = 0.0005


def reference_chunk(steps: int = STEPS) -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic."""
    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, steps):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    return time.perf_counter() - started


class SpeedProbe:
    """Context manager that samples reference_chunk() on a timer signal.

    Only for the main thread of a process that uses no other SIGALRM timer.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.stamps = []    # perf_counter() when each sample finished
        self.chunks = []    # seconds each sample took
        self.spent = 0.0    # seconds spent inside the signal handler
        self._previous = None

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        chunk = reference_chunk()
        left = time.perf_counter()
        self.stamps.append(left)
        self.chunks.append(chunk)
        self.spent += left - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, started: float, ended: float, wall: float) -> float:
        """`wall` seconds spent in [started, ended], in calibrated seconds.

        Uses the samples that finished inside the interval, or the nearest
        one when the interval was too short to hold any.
        """
        lo = bisect.bisect_left(self.stamps, started)
        hi = bisect.bisect_right(self.stamps, ended)
        if hi > lo:
            inside = self.chunks[lo:hi]
        elif self.chunks:
            near = min(max(lo, 0), len(self.chunks) - 1)
            inside = [self.chunks[near]]
        else:
            raise RuntimeError("no speed sample taken yet")
        return wall * sum(NOMINAL_S / c for c in inside) / len(inside)
