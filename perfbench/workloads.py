"""The four benchmark workloads.

Each workload builds its inputs from the workload seed.  Ops run in
rounds of ``round_len``: ``prepare(j)`` readies the ``j``-th input of
the round outside the op's time, ``op`` runs one unit of user-visible
work and returns the graph and the result, and ``check`` validates the
result against that graph and returns the op's cut, raising
:class:`CheckFailed` on a wrong answer.  Every round repeats the same
inputs, so a run's mean cut does not depend on how many rounds fit.
Why each workload exists, and which layer it stresses, is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import IncrementalSession, metrics, preset
from repro.core.partitioner import partition_graph
from repro.generators import random_geometric_graph, road_network
from repro.graph import validate_partition
from repro.graph.dynamic import DynamicGraph, generate_mutation_stream

PRESET = "fast"


class CheckFailed(Exception):
    """An op returned a wrong or infeasible answer."""


def road(seed: int, n: int = 2**14):
    """The road16k recipe of the ROADMAP baseline, at ``n`` nodes."""
    return road_network(n, n_cities=24, seed=seed)


def check_partition(g, part: np.ndarray, k: int, epsilon: float,
                    reported_cut: float) -> float:
    """Validate ``part`` (feasible for ``epsilon``) and compare the
    reported cut with one recomputed from the graph."""
    try:
        validate_partition(g, part, k, epsilon)
    except ValueError as exc:
        raise CheckFailed(f"invalid partition: {exc}") from None
    cut = metrics.cut_value(g, part)
    if cut != reported_cut:
        raise CheckFailed(f"reported cut {reported_cut} != recomputed {cut}")
    return cut


class Workload:
    name = ""
    k = 0
    #: ops per round; the end-to-end phase only ends on a round boundary
    round_len = 1
    #: ops that must run in order after ``prepare`` of the first one
    segment_len = 1

    def __init__(self) -> None:
        self.config = preset(PRESET)

    def setup(self, seed: int) -> None:
        """Build the inputs and prepare the first op."""
        raise NotImplementedError

    def prepare(self, j: int) -> None:
        """Ready the input of the round's ``j``-th op."""

    def op(self):
        raise NotImplementedError

    def check(self, out) -> float:
        g, res = out
        return check_partition(g, res.partition.part, self.k,
                               self.config.epsilon, res.cut)

    def digest(self, out):
        """The part of a checked output that is kept after the op."""
        return None

    def finish(self, digests: List) -> List[Optional[str]]:
        """Checks that need every op's digest; one entry per op, the
        failure message or ``None``."""
        return [None] * len(digests)

    def extra_metrics(self, digests: List) -> Dict[str, Tuple[float, str]]:
        """End-to-end metrics that only this workload reports, from the
        digests of its checked ops."""
        return {}


class KwayRoad(Workload):
    """The default path; each op of a round partitions its own instance.

    Op time and cut vary by about 16% from partitioner seed to seed on
    one instance, and by 28% and 20% over instances and seeds together,
    so a round holds ``round_len`` instances, each with its own seed,
    and the run's p50 and means are taken over them.  An instance is
    generated before its op, outside the op's time.  Set-up builds a
    fixed instance of the same recipe at ``warm_n`` nodes and runs the
    warm-up op on it, so that set-up time does not vary with the seed's
    first instance.
    """

    name = "kway-road"
    k = 8
    round_len = 20
    warm_n = 2**12

    def instance(self, seed: int, n: int = 2**14):
        return road(seed, n)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.op_seed = 0
        self.g = self.instance(0, self.warm_n)

    def prepare(self, j: int) -> None:
        self.op_seed = self.seed * self.round_len + j
        self.g = self.instance(self.op_seed)

    def op(self):
        return self.g, partition_graph(self.g, self.k, config=self.config,
                                       seed=self.op_seed)


class BisectRgg(KwayRoad):
    name = "bisect-rgg"
    k = 2
    round_len = 12

    def instance(self, seed: int, n: int = 2**15):
        return random_geometric_graph(n, seed=seed)


class SpmdProcess(Workload):
    """The SPMD program on the process engine, two PEs for k=8 blocks.

    Every op partitions one fixed instance with one fixed seed, and the
    workload seed is not used.  The cut of one run varies by about 15%
    with instance and seed, and each distinct input needs its own run on
    the sequential engine as the bit-identity reference, which costs more
    than a process-engine op; averaging over enough inputs does not fit
    in a run.  Set-up builds the instance and runs the warm-up op on a
    fixed instance of the same recipe at ``warm_n`` nodes, which forks
    and maps shared memory as a full op does, at a fraction of its cost.
    """

    name = "spmd-process"
    k = 8
    n_pes = 2
    #: one op has 10 to 15% noise of its own; a run takes the p50 of at
    #: least this many
    round_len = 10
    instance_seed = 0
    warm_n = 2**12

    def __init__(self) -> None:
        super().__init__()
        self.config = self.config.derive(n_pes=self.n_pes)
        self.reference: Optional[np.ndarray] = None

    def setup(self, seed: int) -> None:
        self.main = road(self.instance_seed)
        self.g = road(self.instance_seed, self.warm_n)

    def prepare(self, j: int) -> None:
        self.g = self.main

    def run(self, engine: str, config=None, tracer=None):
        return self.g, partition_graph(
            self.g, self.k, config=config or self.config,
            seed=self.instance_seed, execution="cluster", engine=engine,
            tracer=tracer)

    def op(self):
        return self.run("process")

    def digest(self, out) -> np.ndarray:
        return out[1].partition.part

    def finish(self, digests: List) -> List[Optional[str]]:
        if self.reference is None:
            ref = self.run("sequential")
            self.check(ref)
            self.reference = self.digest(ref)
        return [None if part is None
                or np.array_equal(part, self.reference)
                else "partition differs from the sequential engine's"
                for part in digests]


class IncrementalRoad(Workload):
    """Replays mutation streams through an :class:`IncrementalSession`.

    A round replays ``streams`` streams drawn from the workload seed,
    each of ``stream_len`` batches, and each from the base graph and the
    session's initial partition.

    A drift fallback, a full multilevel run 30 to 50 times the cost of a
    batch, fires once the cut exceeds 1.3 times the initial cut.  The
    initial cut ranges from 189 to 534 across road16k instances and
    partitioner seeds, so with some of them every stream fell back
    within 8 batches, and the fallbacks decided throughput and mean cut.
    The workload therefore starts every stream from one fixed instance
    and initial partition, on which the first fallback fired after 16 to
    22 batches in the streams tried, and streams are 12 batches long.
    ``kway-road`` measures the full run.
    """

    name = "incremental-road"
    k = 8
    stream_len = 12
    streams = 3
    round_len = stream_len * streams
    segment_len = stream_len
    instance_seed = 0

    def __init__(self) -> None:
        super().__init__()
        self.config = self.config.derive(incremental=True)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.g = road(self.instance_seed)
        self.stream_list = [
            generate_mutation_stream(self.g, self.stream_len,
                                     seed=seed * self.streams + j + 1)
            for j in range(self.streams)]
        start = IncrementalSession.start(self.g, self.k, config=self.config,
                                         seed=self.instance_seed)
        self.part0 = start.part
        self.reference_cut = start.reference_cut
        self.prepare(0)

    def prepare(self, j: int) -> None:
        stream, self.batch = divmod(j, self.stream_len)
        if self.batch == 0:
            self.stream = self.stream_list[stream]
            self.dyn = DynamicGraph(self.g)
            self.session = IncrementalSession(
                k=self.k, config=self.config, seed=self.seed,
                part=self.part0.copy(), reference_cut=self.reference_cut)

    def op(self):
        batch = self.stream[self.batch]
        applied = self.dyn.apply(batch)
        g = self.dyn.graph()
        return g, self.session.apply(g, applied.dirty_nodes)

    def check(self, out) -> float:
        cut = super().check(out)
        gauge = self.session.registry.gauge("incremental_last_cut").value
        if gauge != cut:
            raise CheckFailed(f"session recorded cut {gauge} != {cut}")
        return cut

    def digest(self, out) -> float:
        return out[1].migration_fraction

    def extra_metrics(self, digests: List) -> Dict[str, Tuple[float, str]]:
        if not digests:
            return {}
        return {"migrated_frac": (sum(digests) / len(digests), "ratio")}


WORKLOADS: Dict[str, type] = {w.name: w for w in
                              (KwayRoad, BisectRgg, SpmdProcess,
                               IncrementalRoad)}
