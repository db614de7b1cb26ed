"""The calibration loop that the benchmark's timings are scaled by.

The host's speed drifts by up to 2x, so passes of this loop run between
the timed operations and, every SAMPLE_INTERVAL_S, during them.  An
operation's time, without the passes during it, is reported in reference
seconds: measured seconds times REFERENCE_S over the mean time of the
passes before, during and after it.  The loop runs no nordenlab code.

Kept apart from run.py so that clirun.py, which runs inside every timed
CLI process, imports nothing more than this.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

#: Size of the loop, and its time on the reference machine (one idle core
#: of a shared 2-vCPU x86-64 VM, Python 3.11).
SIZE = 90
REFERENCE_S = 0.035
#: When the first pass during a timed operation runs, and the interval of
#: the others.  The first comes early so that short CLI calls get one.
FIRST_SAMPLE_S = 0.05
SAMPLE_INTERVAL_S = 0.25


def work():
    """Fixed stdlib-only work shaped like Poly arithmetic: Fraction
    products summed into a dict keyed by exponent tuples."""
    terms = {}
    for i in range(SIZE):
        for j in range(SIZE):
            expo = (i % 3 + j % 2, i % 2, j % 3)
            acc = terms.get(expo, 0) + Fraction(i + 1, 7) * Fraction(j - 3, 5)
            if acc:
                terms[expo] = acc
            else:
                terms.pop(expo, None)
    return terms


def seconds() -> float:
    """The time of one pass."""
    start = perf_counter()
    work()
    return perf_counter() - start


class Sampler:
    """While armed, runs a pass every SAMPLE_INTERVAL_S from a SIGALRM
    handler (no thread), and keeps the passes' times and their total."""

    def __init__(self):
        self.passes: list[float] = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = perf_counter()
        self.passes.append(seconds())
        self.paused += perf_counter() - start

    def arm(self):
        self.passes, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, FIRST_SAMPLE_S,
                         SAMPLE_INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
