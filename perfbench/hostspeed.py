"""Host-speed calibration for the end-to-end times.

The benchmark runs on a few virtual CPUs of a shared host whose speed
drifts: one fixed partitioning op took 1.03 s and, a minute later,
2.2 s, with thread CPU time tracking wall time, so the slowdown lies
below the process and no longer run or median removes it.  A fixed
reference computation that does not use the program, a pure-Python dict
loop plus numpy ``argsort`` and ``add.at``, slows with it: over five
minutes, windowed op medians moved by 67% while op time over reference
time moved by under 10%.

:class:`HostSpeed` times that reference between ops, at most every
``INTERVAL_S`` seconds and never inside an op, and scales a run's
end-to-end times by ``REFERENCE_S`` over the run's median reference
time.  The scaled times read as seconds on a host where the reference
takes ``REFERENCE_S``; the raw times are printed beside them.

The reference runs in the benchmark's own process, so it follows best
the speed that a single-process workload sees.  The process engine's
two workers run on both CPUs, and wait on each other's messages, so
``spmd-process`` follows it less closely: its ten-run spread (quartile
distance over median) of ``op_p50_s`` was 0.10 to 0.22 scaled and 0.12
to 0.40 raw.  Timing the reference pinned to each CPU in turn made
``kway-road`` worse without helping ``spmd-process``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: reference time, in seconds, that scaled times are expressed at; about
#: what one sample takes on a quiet 2-vCPU host
REFERENCE_S = 0.015
#: least time between two samples, in seconds
INTERVAL_S = 0.2
#: length of the reference's numpy arrays
SIZE = 100_000


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.random(SIZE)
        self.index = rng.integers(0, SIZE, SIZE)
        self.samples: List[float] = []
        self.last = float("-inf")

    def _reference(self) -> float:
        t0 = time.perf_counter()
        d = {}
        for i in range(40_000):
            d[i & 1023] = d.get(i & 1023, 0) + i
        for _ in range(4):
            np.argsort(self.values)
            np.add.at(np.zeros(len(self.values)), self.index, self.values)
        return time.perf_counter() - t0

    def sample(self) -> None:
        """Time the reference twice."""
        self.samples.extend(self._reference() for _ in range(2))
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample unless the last sample is under ``INTERVAL_S`` old."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference seconds."""
        return REFERENCE_S / self.median_s()
