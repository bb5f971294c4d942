"""Host-speed probe: scales measured times to a reference host speed.

On a shared host the same pure-Python code runs up to 1.7 times slower for
seconds or minutes at a time, when other tenants load the machine. A
:class:`SpeedProbe` samples that speed while the benchmark runs: every
``interval`` seconds a timer signal runs a fixed calibration kernel, which
uses nothing of ``planrec``, and records how long it took.
:meth:`SpeedProbe.stop` turns an interval into *reference seconds*: its
wall time, minus the probe's own time inside it, times
``reference_s / median kernel time`` over the samples around the interval.
A change to ``planrec`` moves the wall time and leaves the kernel alone, so
it moves the scaled time by the same share; a slower host moves both, and
the scaled time stays.

Without :meth:`SpeedProbe.running` the probe takes no samples and
:meth:`SpeedProbe.stop` returns plain wall seconds.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

_TABLE = list(range(1024))
_SCRATCH: dict[int, int] = {}


def kernel(n: int) -> int:
    """Fixed interpreter work: dict reads and writes and integer arithmetic.
    It allocates no object the garbage collector tracks, so the program's
    heap cannot make it slower."""
    d = _SCRATCH
    d.clear()
    acc = 0
    for i in range(n):
        key = (acc ^ i) & 1023
        d[key] = d.get(key, 0) + _TABLE[key]
        acc = (acc + d[key]) & 0xFFFFF
    return acc


class SpeedProbe:
    def __init__(self, reference_s: float = 0.0005, kernel_n: int = 1500,
                 interval: float = 0.025, min_samples: int = 20):
        self.reference_s = reference_s
        self.kernel_n = kernel_n
        self.interval = interval
        self.min_samples = min_samples
        self.at: list[float] = []  # midpoint of each sample
        self.took: list[float] = []  # its kernel time
        self.busy = 0.0  # the probe's own seconds so far
        self.active = False

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel(self.kernel_n)
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.busy += t1 - t0

    @contextlib.contextmanager
    def running(self):
        """Sample every ``interval`` seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        for _ in range(self.min_samples):
            self._sample()
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.active = False

    def start(self) -> tuple[float, float]:
        return time.perf_counter(), self.busy

    def stop(self, token: tuple[float, float]) -> float:
        """Reference seconds since ``token``, taken by :meth:`start`."""
        t1, busy1 = time.perf_counter(), self.busy
        t0, busy0 = token
        own = (t1 - t0) - (busy1 - busy0)
        if not self.active:
            return own
        return own * self.reference_s / self.kernel_time(t0, t1)

    def kernel_time(self, t0: float, t1: float) -> float:
        """Median kernel time over the samples inside [t0, t1], widened to
        the nearest ``min_samples`` samples when fewer fall inside."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        while hi - lo < self.min_samples and (lo > 0 or hi < len(self.at)):
            if lo > 0:
                lo -= 1
            if hi < len(self.at) and hi - lo < self.min_samples:
                hi += 1
        return statistics.median(self.took[lo:hi])

    def summary(self) -> tuple[int, float]:
        """Samples taken and their median kernel time."""
        return len(self.took), statistics.median(self.took) if self.took else 0.0
