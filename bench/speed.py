"""Machine speed, measured while a workload runs.

The benchmark shares a few cores of a host with other tenants, and the
speed of identical work on it moves by 20-50 % within seconds to
minutes.  ``Sampler`` measures that speed: every ``INTERVAL_S`` a timer
signal interrupts the workload and times one pass of ``reference_work``,
a fixed piece of pure-Python work that imports nothing from ``submult``,
so no change to the program can change what it costs.  An untimed pass
comes first, so the timed one finds its own code and data in the caches
whatever the program was doing.  A workload time
is then reported at reference speed:

    time_at_reference = measured_time * REFERENCE_S / reference_work_time

where ``reference_work_time`` is the median of the samples taken during
and around the timed interval.  On a machine running at the speed this
file was calibrated on, the two times agree; a program twice as fast
halves both.  The time spent inside the signal handler is subtracted
from every measured interval.  The garbage collector is off during a
sample, so the size of the program's heap does not change what a sample
costs.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Median time of one ``reference_work()`` pass on the calibration machine
# (2-vCPU x86-64 VM, Python 3.11.7, quiet period).  Any constant would do:
# it only sets the scale of the reported times.
REFERENCE_S = 0.00085
INTERVAL_S = 0.1
# Samples this far before and after a timed interval also count for it.
WINDOW_S = 1.0
MIN_SAMPLES = 7


class _Unit:
    """A root of unity exp(2 pi i a / n), the shape of the program's own
    coefficient type: a small object whose product allocates."""

    __slots__ = ("a", "n")

    def __init__(self, a: int, n: int):
        self.a, self.n = a % n, n

    def __mul__(self, other: "_Unit") -> "_Unit":
        return _Unit(self.a + other.a, self.n)

    def key(self) -> int:
        return self.a


def _monomial_mul(x: tuple, y: tuple) -> tuple:
    (xp, xe), (yp, ye) = x, y
    return (tuple(xp[j] for j in yp),
            tuple(xe[yp[j]] * ye[j] for j in range(len(yp))))


def _key(x: tuple) -> tuple:
    return x[0], tuple(u.key() for u in x[1])


_GENS = (
    ((1, 2, 3, 0), tuple(_Unit(a, 4) for a in (0, 0, 0, 1))),
    ((0, 1, 2, 3), tuple(_Unit(a, 4) for a in (1, 0, 3, 2))),
)


def reference_work() -> int:
    """Close a small monomial group (order 64) under multiplication:
    tuples, dict lookups, small objects and method calls, as the
    program's own kernels use them."""
    seen = {_key(g): g for g in _GENS}
    frontier = list(_GENS)
    while frontier:
        nxt = []
        for x in frontier:
            for g in _GENS:
                y = _monomial_mul(x, g)
                k = _key(y)
                if k not in seen:
                    seen[k] = y
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def reference_time(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` passes of ``reference_work``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times ``reference_work`` every INTERVAL_S from a timer signal.

    Use only in the main thread of a process that installs no other
    SIGALRM handler.  ``spent`` is the total time inside the handler,
    so a caller subtracts its change from a measured interval.
    """

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._old = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_work()
            begin = time.perf_counter()
            reference_work()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.mids.append((begin + end) / 2)
        self.times.append(end - begin)
        self.spent += time.perf_counter() - start

    def start(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def speed(self) -> float:
        """The machine's speed over all samples, relative to the
        calibration machine's (above 1 is faster)."""
        return REFERENCE_S / statistics.median(self.times)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample around [start, end]: the
        factor that turns a time measured there into reference time."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:  # widen to the nearest samples
            centre = bisect.bisect_left(self.mids, (start + end) / 2)
            lo = max(0, min(lo, centre - MIN_SAMPLES // 2))
            hi = min(len(self.mids), max(hi, lo + MIN_SAMPLES))
            lo = max(0, min(lo, hi - MIN_SAMPLES))
        if hi <= lo:
            raise RuntimeError("no speed samples were taken")
        return REFERENCE_S / statistics.median(self.times[lo:hi])
