"""Host speed, sampled between operations by timing a fixed reference kernel.

The VMs this benchmark runs on share their cores with other tenants, and a
core's speed drifts by up to a half in phases that last from seconds to
minutes.  Such a phase can cover a whole run, so no statistic over the run's
own wall times can remove it.  The benchmark therefore times a fixed piece of
pure-Python work, the *kernel*, between operations, and reports every time
*scaled* to a reference speed:

    scaled = wall time * REFERENCE_S / (the kernel's median time near it)

A scaled time is the time the operation would take on a host where the
kernel takes ``REFERENCE_S``.  The kernel lives here, outside ``src/``, so a
change to the program moves the wall time and not the scale.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

# The kernel's time in a fast phase of the 2-vCPU VM of the first baseline,
# so scaled times read close to that host's fast-phase wall times.
REFERENCE_S = 0.25e-3
EVERY_S = 0.01     # at most one kernel run per this much wall time
WINDOW = 9         # kernel runs whose median scales a time


def kernel() -> float:
    """Interpreter-bound work of the kinds dpln does: calls, tuple and dict
    operations, float arithmetic and attribute access."""
    table: dict = {}
    acc = 0.0
    for i in range(600):
        key = (i % 23, i & 3)
        table[key] = table.get(key, 0.0) + math.sqrt(i + 1.0)
        acc += len(table) * 0.5 - key[1]
    return acc + sum(table.values())


class Speedometer:
    """Kernel timings along a run, and the scale they give each time."""

    def __init__(self):
        self.times: list[float] = []     # when each kernel run ended
        self.kernel_s: list[float] = []  # how long it took
        self.spent = 0.0                 # wall time spent in sample()
        self._last = -math.inf

    def sample(self) -> float:
        """Runs the kernel once and returns the clock after it."""
        t0 = perf_counter()
        kernel()
        now = perf_counter()
        self.times.append(now)
        self.kernel_s.append(now - t0)
        self._last = end = perf_counter()
        self.spent += end - t0
        return end

    def tick(self) -> float:
        """Samples if ``EVERY_S`` has passed since the last sample; returns
        the clock, so the caller's next interval excludes the kernel."""
        now = perf_counter()
        return self.sample() if now - self._last >= EVERY_S else now

    def scale(self, t: float) -> float:
        """REFERENCE_S over the median of the ``WINDOW`` samples nearest
        in time to ``t``."""
        if not self.times:
            raise RuntimeError("no kernel samples to scale by")
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return REFERENCE_S / statistics.median(self.kernel_s[lo:lo + WINDOW])
