"""Machine-speed reference for timing on a shared host.

On the 2-core host this benchmark was built on, the same job runs up to
twice as slow for tens of seconds at a time while other tenants are busy,
and CPU time slows just as wall time does.  A fixed reference kernel, timed
between jobs, slows by the same factor for interpreter-bound work, so a
job's *scaled* time

    wall seconds * NOMINAL_S / (kernel seconds around the job)

stays put while the raw time drifts.  The kernel is sampled at a steady rate
in time: a job boundary takes as many samples as the time since the last
one calls for, so a long job is bracketed by many of them.  The kernel time
around a job is the mean of the median of the samples just before it and
the median of those just after it; the medians smooth the kernel's own
millisecond jitter, which a long job averages out.
"""
from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

#: reference kernel seconds at nominal speed
NOMINAL_S = 1e-3
#: kernel repeats per sample (the median is kept)
REPEATS = 3
#: one sample is due per this much time
INTERVAL_S = 0.25
#: most samples taken at one job boundary
MAX_BATCH = 40
#: samples this close before a job's start or after its end count for it
WINDOW_S = 2.0


_GRID = np.linspace(0.0, math.pi, 20_000)


def reference_kernel() -> float:
    """Interpreter arithmetic, small numpy calls like the package's scalar
    loops, and one large vectorized pass like its angle grids; about 1 ms
    on a quiet core."""
    acc = 0.0
    for i in range(1, 3000):
        acc += math.sqrt(i) * 1.0000001 + (i % 7) / i
    a = np.arange(16.0)
    for _ in range(150):
        a = np.cos(a) * 0.5 + np.abs(a[::-1]) * 0.25
    grid = np.cos(_GRID) * np.exp(-_GRID)
    return acc + float(a.sum()) + float(np.cumprod(1.0 + 1e-6 * grid)[-1])


class SpeedProbe:
    """Timed reference samples and the scale factor they give a time span."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        runs = []
        for _ in range(REPEATS):
            start = perf_counter()
            reference_kernel()
            runs.append(perf_counter() - start)
        self.times.append(perf_counter())
        self.kernel_s.append(statistics.median(runs))

    def sample_if_due(self) -> None:
        """Take the samples due since the last one; a full batch at first."""
        due = MAX_BATCH if not self.times else int((perf_counter() - self.times[-1]) / INTERVAL_S)
        for _ in range(min(due, MAX_BATCH)):
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean of the median kernel time within WINDOW_S
        before ``start`` and the one within WINDOW_S after ``end``; a side
        without samples in its window uses its nearest sample."""
        t, k = self.times, self.kernel_s
        i = bisect.bisect_right(t, start)  # t[:i] precede the job
        j = bisect.bisect_left(t, end)  # t[j:] follow it
        before = k[bisect.bisect_left(t, start - WINDOW_S):i] or k[max(i - 1, 0):i]
        after = k[j:bisect.bisect_right(t, end + WINDOW_S)] or k[j:j + 1]
        sides = [statistics.median(side) for side in (before, after) if side]
        return NOMINAL_S / statistics.fmean(sides)
