"""CPU speed sampling, for timings that hold still on a shared machine.

On a machine shared with other tenants the same pure-Python work can take
up to twice as long for stretches of several seconds, so raw wall times
of whole runs spread by a quarter or more.  The harness therefore samples
the speed of its CPU all through a run and reports *reference seconds*:
the raw seconds of an interval times ``REFERENCE_S`` over the loop time
sampled inside it, i.e. the time the interval would have taken had the
CPU run at the reference speed all along.  Raw seconds are reported next
to them.

The harness and its workers share one CPU (see ``run.prepare``), and the
sampler lives in the harness: every ``PERIOD_S`` a timer signal wakes it,
also while it waits for a worker, and it runs a short fixed loop of
integer arithmetic twice on that CPU, timing the second run: the first
run pays for the caches the worker left behind.  An interval's speed is
the median of its samples.  Sampling takes under one percent of the CPU.
The loop imports nothing from the package, so no change to the package
can move it.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
LOOP = 300

# Median sample on the machine the benchmark was defined on (a 2.0 GHz
# Xeon vCPU, CPython 3.11).
REFERENCE_S = 2.0e-5

# Intervals holding fewer samples borrow the nearest ones.
MIN_SAMPLES = 8


def _loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the CPU speed from a SIGALRM handler while it is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, seconds)

    def _tick(self, _signum, _frame) -> None:
        when = time.perf_counter()
        _loop()
        self.samples.append((when, _loop()))

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, rescaled to the reference speed."""
        inside = [s for when, s in self.samples if t0 <= when <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda ws: abs(ws[0] - mid))
            inside = [s for _, s in nearest[:MIN_SAMPLES]]
        return (t1 - t0) * REFERENCE_S / statistics.median(inside)
