"""Machine cost model for the sim engine's simulated cluster.

The original KaPPa ran on a 200-node InfiniBand 4X DDR cluster: point-to-
point latency below 2 µs and > 1300 MB/s bandwidth (paper Section 6,
"System").  We model communication LogP-style as

    t(message) = latency + nbytes · byte_time

and collectives over P PEs as ``ceil(log2 P)`` rounds of that.  Compute is
charged per abstract *work unit* (≈ one edge traversal in the C++
original).  Simulated time produced by this model drives the Figure 3
scalability reproduction; it deliberately measures the *algorithm's*
communication/computation structure, not Python interpreter speed.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass

import numpy as np

__all__ = ["MachineModel", "DEFAULT_MACHINE", "payload_nbytes"]


@dataclass(frozen=True)
class MachineModel:
    """LogP-style cost parameters (defaults follow the paper's cluster)."""

    latency_s: float = 2.0e-6            # InfiniBand point-to-point latency
    byte_time_s: float = 1.0 / 1.3e9     # > 1300 MB/s point-to-point
    work_unit_s: float = 5.0e-8          # one edge operation in compiled code

    def message_time(self, nbytes: int) -> float:
        """Transfer time of a point-to-point message."""
        return self.latency_s + max(0, nbytes) * self.byte_time_s

    def collective_time(self, p: int, nbytes: int) -> float:
        """Tree-based collective (bcast/reduce/barrier) over ``p`` PEs."""
        if p <= 1:
            return 0.0
        rounds = math.ceil(math.log2(p))
        return rounds * self.message_time(nbytes)

    def compute_time(self, work_units: float) -> float:
        """Time for ``work_units`` abstract operations of local compute."""
        return max(0.0, work_units) * self.work_unit_s


DEFAULT_MACHINE = MachineModel()


def payload_nbytes(obj) -> int:
    """Estimate the wire size of a message payload.

    numpy arrays report their buffer size; scalars and small structures
    fall back to a pickle-based estimate (which is what mpi4py's
    lower-case API would actually send).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (tuple, list)) and all(
        isinstance(x, np.ndarray) for x in obj
    ):
        return int(sum(x.nbytes for x in obj))
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64
