"""Machine-speed reference for the benchmark's timings.

The virtual machine the benchmark was built on changes speed by up to a
factor of two within tens of seconds, because the host is shared.  A run of
30 seconds cannot average that out.  A fixed pure-Python loop, timed every
``PERIOD`` seconds from a SIGALRM handler while a pass runs, tracks the
speed closely.  On an n = 2000 solve whose latency swung from 60 to 122 ms
over a minute, the ratio of the solve's latency to the loop's stayed
within 5%.  ``Sampler.adjust`` scales an interval to the speed at which the
loop takes ``NOMINAL_S``.  The loop is part of the benchmark, not of the
package, so a change to the package moves the adjusted times exactly as it
moves the raw ones.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

PERIOD = 0.2
NOMINAL_S = 0.005  # the loop's duration at the reference speed


def reference_loop(n: int = 20000) -> int:
    """Scalar float work of the same kind as the pure kernels and root scans."""
    d = 1.0
    count = 0
    for i in range(n):
        off = 0.5 + (i & 7) * 0.01
        d = 2.0 - off * off / d + 1e-3 * math.sin(d)
        if d < 0.0:
            count += 1
    return count


class Sampler:
    """Times ``reference_loop`` every PERIOD seconds while the block runs."""

    def __init__(self):
        self.samples: list[tuple] = []  # (start, end) of each timing
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        reference_loop()
        self.samples.append((start, perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than PERIOD still gets one
            self._tick(None, None)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] less the time the sampler itself took in it."""
        return t1 - t0 - sum(e - s for s, e in self.samples if s >= t0 and e <= t1)

    def adjust(self, t0: float, t1: float) -> float:
        """``busy(t0, t1)`` scaled to the reference speed around [t0, t1]."""
        near = [e - s for s, e in self.samples if t0 - PERIOD <= s <= t1 + PERIOD]
        if not near:
            s, e = min(self.samples, key=lambda se: abs(se[0] - t0))
            near = [e - s]
        return self.busy(t0, t1) * NOMINAL_S / statistics.median(near)
