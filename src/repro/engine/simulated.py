"""Simulated engine: the threads engine plus a LogP cost-model clock.

The paper's implementation is C++/MPI on a distributed-memory cluster.
This engine runs the SPMD program exactly as the threads engine does —
same mailboxes, round-numbered rendezvous, failure abort, deadlock
diagnostics and runner — and adds one thing: every PE carries a clock
of *simulated* seconds, advanced by the
:class:`~repro.parallel.costmodel.MachineModel`:

* :meth:`SimComm.compute` charges abstract work units;
* a message is stamped on ``send`` with its arrival time (sender clock +
  ``message_time``), and ``recv`` cannot complete before it;
* a collective starts when the last PE arrives (clocks sync to the max)
  and then costs ``collective_time`` for its payload.

The run's ``makespan`` is the max over final clocks — the simulated
parallel time the Figure 3 scalability reproduction plots, not wall
clock.  Clocks depend only on the program's messages and collectives,
so they are deterministic; ``map_batch`` keeps the threads engine's work
stealing because batch tasks never touch ``comm``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from ..parallel.costmodel import DEFAULT_MACHINE, MachineModel, payload_nbytes
from .threads import ThreadsComm, ThreadsEngine, _ThreadsShared

__all__ = ["SimComm", "SimulatedEngine"]


class SimComm(ThreadsComm):
    """A threads-engine communicator with a simulated clock."""

    _engine = "sim"

    def __init__(self, rank: int, shared: _ThreadsShared,
                 machine: MachineModel) -> None:
        super().__init__(rank, shared)
        self.machine = machine
        #: simulated seconds elapsed on this PE
        self.clock = 0.0

    def compute(self, work_units: float) -> None:
        """Charge local compute to the simulated clock."""
        self.clock += self.machine.compute_time(work_units)

    def _charge(self, nbytes: int) -> None:
        self.clock += self.machine.collective_time(self.size, nbytes)

    # -- point to point: messages carry their arrival time ---------------
    def _seal(self, obj: Any, nbytes: int) -> Any:
        return obj, self.clock + self.machine.message_time(nbytes)

    def _open(self, item: Any) -> Any:
        obj, arrival = item
        self.clock = max(self.clock, arrival)
        return obj

    # -- collectives: sync to the last arrival, then pay the tree --------
    def _exchange(self, value: Any) -> List[Any]:
        slots = super()._exchange((value, self.clock))
        self.clock = max(self.clock, max(t for _, t in slots))
        return [v for v, _ in slots]

    def barrier(self) -> None:
        super().barrier()
        self._charge(0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        out = super().bcast(obj, root)
        self._charge(payload_nbytes(out))
        return out

    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        vals = super().gather(obj, root)
        self._charge(payload_nbytes(obj))
        return vals

    def allgather(self, obj: Any) -> List[Any]:
        vals = super().allgather(obj)
        self._charge(payload_nbytes(obj))
        return vals

    def allreduce(self, value: Any,
                  op: Optional[Callable[[Any, Any], Any]] = None) -> Any:
        out = super().allreduce(value, op)
        self._charge(payload_nbytes(value))
        return out

    def alltoall(self, objs: Sequence[Any]) -> List[Any]:
        out = super().alltoall(objs)
        nbytes = max((payload_nbytes(o) for o in objs), default=0)
        self.clock += self.machine.collective_time(self.size, nbytes) * 2
        return out


class SimulatedEngine(ThreadsEngine):
    """One thread per virtual PE + LogP-style simulated time.

    >>> def program(comm):
    ...     return comm.allreduce(comm.rank)
    >>> SimulatedEngine(4).run(program).results
    [6, 6, 6, 6]
    """

    name = "sim"

    def __init__(self, p: int, recv_timeout_s: Optional[float] = None,
                 machine: Optional[MachineModel] = None) -> None:
        super().__init__(p, recv_timeout_s)
        self.machine = DEFAULT_MACHINE if machine is None else machine

    def _comm(self, rank: int, shared: _ThreadsShared) -> SimComm:
        return SimComm(rank, shared, self.machine)

    def _clocks(self, comms: List[SimComm],  # type: ignore[override]
                walls: List[float]) -> List[float]:
        """Per-PE simulated clocks; their max is the makespan."""
        return [c.clock for c in comms]
