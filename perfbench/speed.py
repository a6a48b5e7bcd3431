"""Machine-speed normalisation of measured times.

On a shared machine the CPU speed a process sees changes by up to 2x, on
scales from a fraction of a second to tens of seconds.  On a 2-CPU Linux
container (Python 3.11.7) a fixed pwdyn op swung between 9.4 and 18.7 ms
within 40 s, while the ratio of its 2-second medians to those of `probe`
stayed within 4.04-4.40.  So a `Meter` runs `probe` from a SIGALRM timer
every INTERVAL_S, all through a measurement, and converts a measured
duration to its time at the reference speed, the speed at which `probe`
takes REFERENCE_NS: it multiplies by REFERENCE_NS over the probe times
sampled during that interval (or next to it, for a short one).  Time spent
in the probe itself is subtracted from every duration.

`probe` uses only the standard library, never pwdyn, so a change to the
library cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# Probe time at the reference speed: its median in fast phases on the
# container above.
REFERENCE_NS = 600_000
INTERVAL_S = 0.015
NEAREST = 3         # samples on each side used for a short interval


def probe() -> int:
    """Time in ns of a fixed piece of exact arithmetic shaped like the
    library's: affine images of rationals, a fold at a cut, sort, dict."""
    start = time.perf_counter_ns()
    slope, intercept, cut = Fraction(3, 7), Fraction(1, 11), Fraction(1, 2)
    values = []
    for k in range(1, 90):
        y = slope * Fraction(k, 91) + intercept
        values.append(1 - y if y > cut else y)
    values.sort()
    ranks = {v: i for i, v in enumerate(values)}
    elapsed = time.perf_counter_ns() - start
    return elapsed if ranks else 0


class Meter:
    """Samples `probe` on a timer between `start` and `stop`."""

    def __init__(self):
        self.at: list[int] = []       # perf_counter_ns when each sample began
        self.cost: list[int] = []     # probe time of each sample
        self.stolen = 0               # ns spent sampling so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter_ns()
        self.cost.append(probe())
        self.at.append(begin)
        self.stolen += time.perf_counter_ns() - begin

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> int:
        """perf_counter_ns less the time spent sampling."""
        return time.perf_counter_ns() - self.stolen

    def scale(self, begin: int, end: int) -> float:
        """Factor from measured time to reference time over the
        perf_counter_ns interval [begin, end]."""
        i, j = bisect_left(self.at, begin), bisect_right(self.at, end)
        if j - i >= 3:
            return statistics.fmean(REFERENCE_NS / c for c in self.cost[i:j])
        near = self.cost[max(0, i - NEAREST):j + NEAREST]
        if not near:
            raise RuntimeError("no speed samples were taken")
        return REFERENCE_NS / statistics.median(near)
