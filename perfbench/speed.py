"""The machine's speed over time, for reporting times at a nominal speed.

On a shared machine the speed of a Python process swings by a factor
of 1.5 or more, in phases of seconds, and an op of `tquot` slows down
with it.  A sampler thread times a short fixed reference loop every
PERIOD seconds while the benchmark runs.  Across those phases an op's
wall time moves as about the EXPONENT-th power of the reference time
(see README.md), so an interval is rescaled to the speed at which the
reference loop takes NOMINAL seconds.  A change of machine speed then
leaves the figure mostly alone; a change of the program moves it as it
moves the wall time.

The sampler holds the interpreter lock only for its loop, 0.5 to 1 ms
every PERIOD: 1 to 2% of the time, the same share on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from fractions import Fraction

PERIOD = 0.05
WINDOW = 0.6
NOMINAL = 0.0005
EXPONENT = 0.7


def reference_loop():
    """Fixed pure-Python work of the kind the program does: rationals,
    tuples and dict updates."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 150):
        x = Fraction(i % 7 - 3, i % 5 + 1)
        acc += x * x
        key = (i % 13, i % 11)
        seen[key] = seen.get(key, 0) + 1
    return acc, seen


class Sampler:
    """Reference-loop times, stamped with the wall clock, from a
    background thread; use as a context manager."""

    def __init__(self):
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD):
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
            self.seconds.append(end - start)
            self.stamps.append(end)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def reference(self, start: float, end: float) -> float:
        """Median reference time over [start, end], widened to at least
        WINDOW seconds around its middle, so that a short op is judged
        by a dozen samples and not by one or two."""
        half = max(WINDOW, end - start + 2 * PERIOD) / 2
        middle = (start + end) / 2
        lo = bisect.bisect_left(self.stamps, middle - half)
        hi = bisect.bisect_right(self.stamps, middle + half)
        if lo == hi:  # the sampler was held up; take the nearest sample
            lo = min(lo, len(self.stamps) - 1)
            hi = lo + 1
        return statistics.median(self.seconds[lo:hi])

    def nominal(self, start: float, end: float) -> float:
        """Seconds from start to end, rescaled to the nominal speed."""
        return (end - start) * (NOMINAL / self.reference(start, end)) ** EXPONENT
