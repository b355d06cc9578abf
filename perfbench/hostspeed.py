"""Host-speed calibration sampled during timed work.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU
Xeon guest a fixed ufunc loop took from 1.0 to 1.7 times its fastest
time in bursts of a fraction of a second, in CPU time as much as in
wall time (steal time stayed near zero), and single passes of one
workload differed by up to 67 % within a few minutes.  No number of
passes a run can afford averages that away, so every timed interval
is also expressed in reference seconds.

A Calibrator runs a small fixed kernel from a SIGALRM handler every
``period_s`` seconds, on the thread that does the work.  The samples
see the host as the work sees it, at the same moments, so the mean
kernel time over an interval measures how slow the host was during
it:

    cal = Calibrator(numeric_kernel(), NUMERIC_REF_S)
    cal.start()
    mark, t0 = cal.mark(), cal.clock()
    ...                                   # the timed work
    seconds, factor = cal.clock() - t0, cal.factor(mark)
    cal.stop()

``clock`` is perf_counter minus the time spent sampling, so the work
is timed without it.  Each sample runs the kernel twice and keeps the
second time, so it sees the kernel's own code and data in cache
whatever the timed work did to them.  (A cold 4096-point FFT, tried
in an earlier kernel, took 1.8 times as long inside FFT-free work as
inside FFT-heavy work: it would have counted a change in the program's
mix as a change in the host.  Warm, the difference was within noise.)
``factor`` is the kernel's reference time over the trimmed mean sample
since ``mark`` (the slowest and fastest 5 % dropped); seconds * factor
is the time the work would take on a host where the kernel takes its
reference time.  Ratios of such times between two versions of the
program are ratios of their costs on the same host.

Two kernels:

* ``numeric_kernel()``: an interpreter loop and numpy ufuncs on 4096
  doubles, about 0.2 ms.  It times the workload passes.
* ``python_kernel``: interpreter work only, so it can run before numpy
  is imported.  It times the set-up probe, which imports numpy.

The kernels are the benchmark's own code and nothing in the program
under test calls them, so a change to the program moves reference
seconds only through its own cost.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.025
TRIM = 0.05
# Round figures near the fastest warm kernel times seen on the 2-vCPU
# Intel Xeon guest the benchmark was defined on.  They only set the
# unit: any fixed value gives the same ratios between runs.
NUMERIC_REF_S = 1.7e-4
PYTHON_REF_S = 1.8e-4

_LOOP = range(300)
_PYTHON_LOOP = range(3000)


def python_kernel() -> float:
    """Seconds of one fixed unit of interpreter work."""
    t0 = perf_counter()
    acc = 0
    for i in _PYTHON_LOOP:
        acc += i * i
    words = {}
    for i in _LOOP:
        words[str(i)] = i
    return perf_counter() - t0


def numeric_kernel():
    """The kernel for workload passes: an interpreter loop and numpy
    ufuncs.  numpy is imported here, not by this module."""
    import numpy as np

    base = np.linspace(0.0, 1.0, 4096)

    def kernel() -> float:
        t0 = perf_counter()
        acc = 0
        for i in _LOOP:
            acc += i * i
        x = base
        for _ in range(6):
            x = np.sin(x) * 0.5 + base
        return perf_counter() - t0

    return kernel


class Calibrator:
    """Kernel samples taken every ``period_s`` seconds while started."""

    def __init__(self, kernel, ref_s: float, period_s: float = PERIOD_S):
        self.kernel = kernel
        self.ref_s = ref_s
        self.period_s = period_s
        self.samples: list = []
        self.spent = 0.0                # seconds inside the handler
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:                  # a late signal during a sample
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self.kernel()               # warm-up: caches as the kernel left them
            self.samples.append(self.kernel())
        finally:
            self.spent += perf_counter() - t0
            self._busy = False

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return perf_counter() - self.spent

    def mark(self) -> int:
        """Take a sample now and return its index, so the samples from
        the mark on are never empty."""
        self._handler(None, None)
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """Reference time over the trimmed mean sample since ``mark``."""
        recent = sorted(self.samples[mark:])
        cut = int(TRIM * len(recent))
        kept = recent[cut:len(recent) - cut]
        return self.ref_s * len(kept) / sum(kept)
