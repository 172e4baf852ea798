"""The speed of the machine, measured with a fixed reference loop.

On a shared host the same Python code runs up to 1.8 times slower for
seconds to minutes at a time, on one virtual CPU or on the whole guest.  A
call of 0.1 to 1 s cannot escape such a stretch, so its fastest run moves
with the load on the host.  The benchmark therefore runs a fixed loop of
pure Python, which shares no code with weylkit, before and after the
operations it times, and reports each operation at reference speed:

    seconds at reference speed = measured seconds * REFERENCE_S / reference time

where the reference time is the mean of the loop's runs just before and just
after the operation.  A change to weylkit moves the measured seconds and not
the reference, so it shows in full; a slow stretch of the host moves both.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the median time of reference_loop() on a 2-vCPU KVM guest (Intel Xeon,
# Python 3.11); a fixed constant, so that the figures read as seconds and
# two runs compare directly
REFERENCE_S = 0.0017

# run the reference at least this often while operations are timed
EVERY_S = 0.1


def reference_loop() -> Fraction:
    """A product of two dense polynomials with rational coefficients, kept
    in a dict keyed by exponent pairs: the kind of work weylkit does, written
    without it."""
    x = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    y = {(i, j): Fraction(j - 3, i + 1) for i in range(4) for j in range(4)}
    acc: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in x.items():
        for (d, e), f in y.items():
            key = (a + d, b + e)
            acc[key] = acc.get(key, 0) + c * f
    return sum(acc.values(), Fraction(0))


class SpeedMeter:
    """Runs of the reference loop, each numbered in order."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._last = 0.0

    def tick(self) -> int:
        """Run the reference loop once; returns its number."""
        t0 = time.perf_counter()
        reference_loop()
        self._last = time.perf_counter()
        self.times.append(self._last - t0)
        return len(self.times) - 1

    def tick_if_due(self) -> None:
        if time.perf_counter() - self._last > EVERY_S:
            self.tick()

    def last(self) -> int:
        return len(self.times) - 1

    def scaled(self, seconds: float, before: int) -> float:
        """`seconds` measured between reference runs `before` and
        `before + 1`, at reference speed."""
        ref = (self.times[before] + self.times[before + 1]) / 2
        return seconds * REFERENCE_S / ref
