"""Host speed, measured with a fixed kernel between the timed operations.

The small machines this benchmark runs on share their cores with other
tenants, and their speed drifts by a fifth or more over minutes: a fixed
numpy loop timed in 2-second windows on the 2-core, 7 GB machine the bounds
were set on ranged from 0.8x to 1.2x of its median, with no CPU steal
reported. Runs of the same code minutes apart then differ by more than any
regression worth catching.

So every timed operation is bracketed by runs of a fixed kernel that does not
touch avdistill: dense products shaped like one reference tower layer, and the
small-array sort and cumulative-sum calls that per-query ranking makes. A
time is reported in reference seconds,

    reference seconds = measured seconds * NOMINAL_S / kernel seconds,

where the kernel seconds are the mean of the runs before and after, so a host
running at half speed doubles both and leaves the figure unchanged. NOMINAL_S
is the kernel's typical time on that machine; it only scales the numbers. The
raw times are printed beside them.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.24


class Kernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((400, 1024))
        self._w = rng.standard_normal((1024, 1024))
        self._row = rng.standard_normal(1600)

    def run(self) -> float:
        """Seconds the kernel took."""
        t0 = time.perf_counter()
        for _ in range(12):
            self._x @ self._w
        for _ in range(900):
            np.argsort(self._row, kind="stable").cumsum()
        return time.perf_counter() - t0


def slowdown(before_s: float, after_s: float) -> float:
    """How many times slower than nominal the host ran between two kernel runs."""
    return (before_s + after_s) / 2.0 / NOMINAL_S
