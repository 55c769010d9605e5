"""Host-speed calibration: fixed reference work timed between ops.

The benchmark host is a shared 2-core VM whose speed changes in phases:
the same op takes anywhere from 0.7x to 1.6x its typical time, in
phases that last from a few seconds to about twenty. CPU time moves with
wall time, and hardware counters are not available. So every timed
interval is bracketed by calibrations, and the interval is scaled by
``REFERENCE_S`` over the mean kernel time on either side of it. The
result is the interval's length at the reference host speed.

The kernel mixes the kinds of work the library's hot paths do:
Python-level grouping of (instance, task) tuples, small numpy products
on the groups, and plain interpreter arithmetic. It does not touch the
library, so a change to the library moves the scaled times and leaves
the kernel alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the reference host (2-core VM, one BLAS
# thread, numpy 2.4.6). Only the ratio to it matters.
REFERENCE_S = 0.040
RUNS = 3


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((400, 16))
        self.w = rng.standard_normal((16, 12))
        self.h = rng.standard_normal((2, 12))
        self.pairs = [(i, i % 3) for i in range(300)]

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(300):
            groups: dict[int, list[int]] = {}
            for i, t in self.pairs:
                groups.setdefault(t, []).append(i)
            for idx in groups.values():
                e = self.x[idx] @ self.w @ self.h.T
                total += float(np.sum(e * e))
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        return total + acc

    def seconds(self) -> float:
        """Median wall time of ``RUNS`` back-to-back kernel runs.

        Single runs jitter by about 10% even within one speed phase; the
        median of three does not.
        """
        times = []
        for _ in range(RUNS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that maps an interval between two kernel runs to reference speed."""
        return REFERENCE_S / (0.5 * (before + after))
