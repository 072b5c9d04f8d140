"""A fixed reference computation, timed over and over during a pass.

The benchmark shares a few cores of a host with other tenants, and the
host's speed swings by up to half from one minute to the next. CPU time
swings with wall time, so the slowdown is in the hardware, not in
preemption, and no statistic of a pass's own time removes it. The reference
computation slows with the host but not with the package: `wall_ref`, a
pass's wall time divided by the mean time of the reference computation timed
during that same pass, stays put when the host's speed changes and moves
when the package's cost does.

A SIGALRM interval timer interrupts the pass every `INTERVAL_S` seconds and
runs the reference computation in the handler, between two bytecodes of the
package's code. The time the handler spends is kept off the pass's clock.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator

INTERVAL_S = 0.05
# A pass shorter than a few intervals is topped up after it ends.
MIN_SAMPLES = 3


def reference() -> Fraction:
    """Exact rational sums with growing big-int terms, like the package's
    arithmetic; 0.4 to 0.7 ms on a shared 2.1 GHz Xeon core."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    return total


class HostSampler:
    """Times the reference computation during a pass and keeps that time
    off the pass's clock."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - started)
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - entered

    def clock(self) -> float:
        """perf_counter() less the time spent in the reference computation."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @contextmanager
    def running(self) -> Iterator["HostSampler"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        while len(self.samples) < MIN_SAMPLES:
            self._tick()
