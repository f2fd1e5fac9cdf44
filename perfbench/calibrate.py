"""How fast the host runs plain Python around each timed request.

On a shared host the speed of the same code moves by up to 1.8x, in bursts
of a fraction of a second and in states that last a minute or more,
because other tenants load the same cores.  Neither a request's least nor
its median time over the passes of a run filters out the long states.  So
between requests, outside their timed intervals, the runner times a fixed
kernel that does not call shiftlab: small-integer and dict work, a
big-integer run-length recurrence printed in decimal, and Fraction minima,
the kinds of work the workloads do.  Each request's time is divided by the
geometric mean of the samples just before and just after it, and
multiplied by ``REFERENCE_S``: the result is the request's time on a host
where one sample takes ``REFERENCE_S``.  Requests that together take less
than ``GROUP_S`` share the samples around them.  On a 2-core shared VM,
over eight 22-second runs of the tables workload in which the raw sum of
the requests' median times ranged over 0.64 of its median, the sum of the
scaled times ranged over 0.04.

A change to shiftlab does not move the kernel, so it moves the scaled
times in full.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# Seconds one sample takes on the reference host: about its median on the
# 2-core VM the bounds were set on.
REFERENCE_S = 5e-4
# Request time between two samples: short against the bursts of host load,
# long against the kernel, so that sampling adds a few percent to a run.
GROUP_S = 0.02


def _kernel() -> int:
    total, table = 0, {}
    for i in range(1500):
        total += (i * i) % 7
        table[i & 63] = total
    runs = {0: 1}
    for _ in range(60):
        grown, ones = {}, 0
        for r, c in runs.items():
            grown[r + 1] = c
            ones += c
        grown[0] = ones
        runs = grown
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = min(x, Fraction(7 * i + 1, 13 * i + 5)) + Fraction(1, i)
    return total + len(str(ones)) + x.denominator % 7


def scale(before: float, after: float) -> float:
    """The factor from a time measured between two samples to the
    reference host."""
    return REFERENCE_S / math.sqrt(before * after)


class Calibration:
    """Samples taken between requests, at most every ``every_s`` seconds of
    request time; the requests between two samples are scaled by both."""

    def __init__(self, every_s: float = GROUP_S):
        self.every_s = every_s
        self.samples = []
        self._pending = []  # request times since the last sample
        self._scaled = []
        self.sample()

    def sample(self) -> float:
        """Seconds the kernel takes now, with the garbage collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            seconds = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def add(self, request_s: float) -> None:
        """Records a request's time; samples when enough time has passed."""
        self._pending.append(request_s)
        if sum(self._pending) >= self.every_s:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            before = self.samples[-1]
            factor = scale(before, self.sample())
            self._scaled += [t * factor for t in self._pending]
            self._pending.clear()

    def take(self) -> list[float]:
        """The times of the requests added since the last take, on the
        reference host."""
        self._flush()
        out, self._scaled = self._scaled, []
        return out
