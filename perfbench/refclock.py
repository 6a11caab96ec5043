"""Wall time normalized by the speed of a fixed reference loop, sampled throughout a run.

On a shared machine the CPU speed one process sees drifts between states tens
of percent apart, switching every few seconds as other tenants load the host.
On a 2-CPU VM, 10-second medians of a fixed loop ranged from 71 to 92 ms, and
`generate` took 1.34 to 2.24 s for identical work.

While a :class:`RefClock` is active, a timer signal runs a short pure-Python
reference loop every ``SAMPLE_INTERVAL_S`` in the main thread, so the loop
sees the same CPU as the program. A command's normalized time is its wall time
minus the time spent in those samples, multiplied by the mean relative speed
``REF_NOMINAL_S / loop time`` of the samples taken within ``WINDOW_PAD_S`` of
the command: seconds on a machine that runs the loop in ``REF_NOMINAL_S``.
On repeated identical `generate` commands this cut the quartile spread from
5.9% to 2.4%. The loop is integer arithmetic only: a variant that also chased
pointers through a large list measured how much of the cache the program had
just evicted, and made the spread worse. Raw wall times are reported next to
normalized ones.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_ITERS = 10_000
REF_NOMINAL_S = 0.00052  # the loop's time in the faster state of a 2-CPU Xeon VM, Python 3.11
SAMPLE_INTERVAL_S = 0.025
WINDOW_PAD_S = 0.1


def _reference_loop() -> int:
    s = 0
    for i in range(REF_ITERS):
        s += i * i
    return s


class RefClock:
    """Samples the reference loop on a timer; use as a context manager around a run."""

    def __init__(self):
        self.times: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0
        self._previous_handler = None

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        _reference_loop()
        t1 = perf_counter()
        self.times.append(t0)
        self.loop_s.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self) -> "RefClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def measure(self, fn):
        """(result, start, end, wall seconds net of sampling) of ``fn()``."""
        spent0 = self.spent
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        return result, t0, t1, (t1 - t0) - (self.spent - spent0)

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed relative to the nominal loop time, over samples near [t0, t1]."""
        lo = bisect_left(self.times, t0 - WINDOW_PAD_S)
        hi = bisect_right(self.times, t1 + WINDOW_PAD_S)
        window = self.loop_s[lo:hi] or self.loop_s[max(0, lo - 1) : lo + 1]
        return statistics.fmean(REF_NOMINAL_S / s for s in window)

    def reference_ms(self) -> list[float]:
        return [s * 1e3 for s in self.loop_s]
