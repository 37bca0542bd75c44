"""A fixed reference kernel that tracks how fast the host runs right now.

Shared 2-CPU hosts slow down by up to 1.6x for tens of seconds at a time, and
the slowdown hits every kind of work: Python dict loops, sorting, small
linear algebra and memory sweeps alike.  A benchmark run lasts about a
minute, so its raw times move with the host far more than with the code.
The benchmark therefore runs this kernel between the intervals it times and
reports every time scaled by ``REFERENCE_S / local kernel time``: the time
the interval would have taken on a host where the kernel takes
``REFERENCE_S``.  The raw times are kept in the result file.

The kernel mixes the operations the dehash query path spends its time on and
never calls the package, so a change to the package moves the scaled times
exactly as it moves the raw ones.  Changing the kernel or ``REFERENCE_S``
changes every scaled time: that is a change of the benchmark.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# About the median kernel time on a 2-vCPU Xeon host (Python 3.11, numpy
# 2.4).  Any fixed value would do: it only sets the scale of reported times.
REFERENCE_S = 0.007


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(20160629)
        keys = rng.choice(4096, size=600, replace=False)
        self._a = {int(k): float(v) for k, v in zip(keys, rng.random(600))}
        self._b = {int(k): float(v) for k, v in zip(keys[::2], rng.random(300))}
        self._scores = {f"img_{i:04d}": float(s) for i, s in enumerate(rng.random(1500))}
        g = rng.random((24, 24))
        self._gram = g @ g.T + 24 * np.eye(24)
        self._rhs = rng.random((24, 2))
        self._sweep = rng.random((1200, 256))
        # Preallocated so the kernel never asks malloc for fresh pages: how
        # fast those come depends on the process's heap history.
        self._buffer = np.empty_like(self._sweep)
        self._sums = np.empty(len(self._sweep))
        self.samples: list[float] = []

    def kernel(self) -> float:
        """Run the kernel once; record and return its wall time in seconds."""
        start = perf_counter()
        for _ in range(12):  # sparse L1 between dict histograms
            dist = 0.0
            for key, value in self._a.items():
                dist += abs(value - self._b.get(key, 0.0))
        sorted(self._scores.items(), key=lambda kv: (kv[1], kv[0]))
        for _ in range(40):  # small dense solves
            np.linalg.solve(self._gram, self._rhs)
        for row in self._sweep[:6]:  # memory sweeps
            np.subtract(self._sweep, row, out=self._buffer)
            np.abs(self._buffer, out=self._buffer)
            np.sum(self._buffer, axis=1, out=self._sums)
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self, samples: list[float]) -> float:
        """Scale from raw to reference time for work measured among ``samples``."""
        return REFERENCE_S / statistics.median(samples)

    def around(self, fn):
        """Call ``fn()`` with three kernel runs before and three after it.

        Returns (result, raw seconds, scale factor).
        """
        before = [self.kernel() for _ in range(3)]
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        after = [self.kernel() for _ in range(3)]
        return result, raw, self.factor(before + after)
