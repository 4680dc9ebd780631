"""Host-speed sampling, to take other tenants' load out of timings.

On a shared host the same code runs at two speeds: the slow one takes
about 1.8 times as long, and the share of time spent in it moves between
under 10% and 100% over seconds to minutes.  A whole run can fall in a slow
phase, so no estimator over a run's raw timings removes it.

The speedometer measures the host's speed while the benchmark runs.  A
SIGALRM every ``INTERVAL_S`` runs a fixed standard-library kernel (exact
Fraction arithmetic, like the package's) and records when it started and
how long it took.  An operation's own time is its measured time minus the
sampling inside it; ``scale`` multiplies that by the kernel's mean speed
around the operation, in units of the kernel's time on an unloaded host.
The result is the operation's time on an unloaded host.  The kernel never
calls the package, so a change to the package moves the scaled times by
the same factor as the raw ones.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter_ns

INTERVAL_S = 0.004
# The kernel's time on an unloaded host: its fast state on the 2-core x86_64
# VM the benchmark was tuned on (37-40 us; the slow state takes 58-70 us).
# A whole run can miss the fast state, so a run cannot measure this itself.
# Compare scaled times only between runs made with the same value.
FAST_NS = 39_000
# Samples this close to an operation count towards its speed, so that even
# an operation shorter than INTERVAL_S has a few.
WINDOW_NS = 20_000_000

_TERMS = [Fraction(i, i * i + 7) for i in range(1, 13)]


def reference() -> Fraction:
    total = Fraction(0)
    for term in _TERMS:
        total += term * term
    return total


def probe(runs: int = 30, warm_up: int = 5) -> tuple[int, float]:
    """Run the kernel back to back: (time taken in ns, its mean speed).

    For spans the timer cannot sample fairly: during imports a sampled
    kernel finds its caches cold and reads slow on an idle host too.
    """
    start = perf_counter_ns()
    for _ in range(warm_up):
        reference()
    speeds = []
    for _ in range(runs):
        began = perf_counter_ns()
        reference()
        speeds.append(1 / (perf_counter_ns() - began))
    return perf_counter_ns() - start, sum(speeds) / runs


class Speedometer:
    def __init__(self) -> None:
        self.at: list[int] = []
        self.took: list[int] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter_ns()
        reference()
        self.took.append(perf_counter_ns() - start)
        self.at.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start_ns: int, end_ns: int) -> tuple[int, float]:
        """Sampling time spent inside [start, end), and the kernel's mean
        speed (runs per ns) over the samples within WINDOW_NS of it."""
        inside = self.took[bisect_left(self.at, start_ns):bisect_left(self.at, end_ns)]
        lo = bisect_left(self.at, start_ns - WINDOW_NS)
        hi = bisect_right(self.at, end_ns + WINDOW_NS)
        near = self.took[lo:hi]
        return sum(inside), sum(1 / took for took in near) / len(near)


def scale(own_ms: float, speed: float) -> float:
    """An operation's time had the kernel run in FAST_NS throughout.

    Samples are even in time, so the mean of their speeds is the host's
    mean speed over the operation (a mean of times would overweight the
    slow stretches).
    """
    return own_ms * speed * FAST_NS
