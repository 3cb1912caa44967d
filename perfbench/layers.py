"""Per-layer spans recorded from outside the program.

The benchmark never edits the partitioner.  For a traced run it swaps
each public function in :data:`PATCHES` for a timing wrapper, at the
module attribute its caller looks it up through (``from .band import
extract_band`` binds ``repro.refinement.pairwise.extract_band``, so that
is the name patched), runs the workload, and restores every original.

A wrapper adds the call's duration to each metric it is listed under,
but only when no call of the same metric is already open on the
thread, so recursion and nested drivers are not counted twice.  Each
metric's time is therefore inclusive: ``refinement.pair`` contains
``refinement.band`` and ``refinement.fm``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np


def _matched(result) -> Dict[str, float]:
    n = len(result)
    return {"coarsening.matched_nodes": float((result != np.arange(n)).sum()),
            "coarsening.match_nodes": float(n)}


def _pair(result) -> Dict[str, float]:
    return {"refinement.pair_improved": float(bool(result.changed))}


def _band(result) -> Dict[str, float]:
    return {"refinement.band_nodes": float(result[0].graph.n)}


def _fm(result) -> Dict[str, float]:
    return {"refinement.fm_moves_tried": float(result.moves_tried),
            "refinement.fm_moves_kept": float(result.moves_applied)}


def _incremental(result) -> Dict[str, float]:
    return {"incremental.band_nodes": float(result.dirty_band_nodes),
            "incremental.fallbacks": float(result.used_fallback),
            "incremental.migrated_frac": result.migration_fraction}


Probe = Optional[Callable[[object], Dict[str, float]]]

#: (object path, attribute, metrics, probe).  The object path names the
#: module (or class) the caller resolves the attribute through.
PATCHES: Tuple[Tuple[str, str, Tuple[str, ...], Probe], ...] = (
    # phase drivers: the default path, the SPMD program, incremental
    ("repro.core.partitioner", "coarsen", ("coarsening.coarsen",), None),
    ("repro.core.spmd", "prepartition", ("coarsening.coarsen",), None),
    ("repro.core.spmd", "parallel_matching_spmd",
     ("coarsening.coarsen", "coarsening.match"), _matched),
    ("repro.core.spmd", "contract_matching",
     ("coarsening.coarsen", "coarsening.contract"), None),
    ("repro.core.partitioner", "initial_partition", ("initial.partition",),
     None),
    ("repro.core.spmd", "initial_partition_spmd", ("initial.partition",),
     None),
    ("repro.core.partitioner", "pairwise_refinement", ("refinement.refine",),
     None),
    ("repro.core.partitioner", "rebalance", ("refinement.refine",), None),
    ("repro.core.spmd", "pairwise_refinement_spmd", ("refinement.refine",),
     None),
    ("repro.core.spmd", "rebalance", ("refinement.refine",), None),
    ("repro.core.incremental", "rebalance", ("refinement.refine",), None),
    ("repro.core.incremental", "refine_pair",
     ("refinement.refine", "refinement.pair"), _pair),
    # coarsening internals
    ("repro.coarsening.hierarchy", "parallel_matching",
     ("coarsening.match",), _matched),
    ("repro.coarsening.hierarchy", "dispatch", ("coarsening.match",),
     _matched),
    ("repro.coarsening.hierarchy", "contract_matching",
     ("coarsening.contract",), None),
    ("repro.coarsening.matching.registry", "rate_edges",
     ("coarsening.rate",), None),
    ("repro.coarsening.matching.parallel", "rate_edges",
     ("coarsening.rate",), None),
    # refinement internals
    ("repro.refinement.pairwise", "refine_pair", ("refinement.pair",), _pair),
    ("repro.refinement.pairwise", "extract_band", ("refinement.band",),
     _band),
    ("repro.refinement.pairwise", "fm_bipartition_refine",
     ("refinement.fm",), _fm),
    # graph layer
    ("repro.refinement.band", "induced_subgraph", ("graph.subgraph",), None),
    ("repro.coarsening.matching.parallel", "induced_subgraph",
     ("graph.subgraph",), None),
    ("repro.initial.recursive", "induced_subgraph", ("graph.subgraph",),
     None),
    ("repro.graph.dynamic.DynamicGraph", "apply", ("graph.dynamic_apply",),
     None),
    ("repro.graph.dynamic.DynamicGraph", "graph", ("graph.dynamic_csr",),
     None),
    # incremental layer
    ("repro.core.incremental.IncrementalSession", "apply",
     ("incremental.apply",), _incremental),
)

#: kernels are timed at the registry lookup ``dispatch`` goes through
KERNEL_LOOKUP = ("repro.kernels.registry", "get_kernel")
KERNELS = ("edge_ratings", "contract_edges", "gain_boundary", "band_bfs")


def _resolve(path: str):
    """Import ``path`` as a module, or as ``module.Class``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class LayerRecorder:
    """Accumulates span time, call counts and probe counters per metric.

    ``clock`` is ``time.perf_counter`` for single-threaded runs.  On the
    sequential engine every PE is a thread that blocks inside
    collectives while another PE runs, so that run passes
    ``time.thread_time`` to count only each PE's own CPU time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self._open = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn: Callable, metrics: Tuple[str, ...],
             probe: Probe = None) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depth = self._open.__dict__.setdefault("depth", defaultdict(int))
            outer = [m for m in metrics if depth[m] == 0]
            if not outer:
                return fn(*args, **kwargs)
            for m in outer:
                depth[m] += 1
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - t0
                for m in outer:
                    depth[m] -= 1
            extra = probe(result) if probe is not None else {}
            with self._lock:
                for m in outer:
                    self.seconds[m] += elapsed
                    self.calls[m] += 1
                for key, value in extra.items():
                    self.counters[key] += value
            return result
        return timed

    @contextmanager
    def patched(self) -> Iterator["LayerRecorder"]:
        """Install every wrapper; restore every original on exit."""
        saved = []
        try:
            for path, attr, metrics, probe in PATCHES:
                owner = _resolve(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, metrics, probe))
            owner = _resolve(KERNEL_LOOKUP[0])
            lookup = getattr(owner, KERNEL_LOOKUP[1])
            saved.append((owner, KERNEL_LOOKUP[1], lookup))
            wrapped: Dict[Callable, Callable] = {}

            def timed_lookup(name, backend=None):
                fn = lookup(name, backend)
                if name not in KERNELS:
                    return fn
                if fn not in wrapped:
                    wrapped[fn] = self.wrap(fn, (f"kernels.{name}",))
                return wrapped[fn]

            setattr(owner, KERNEL_LOOKUP[1], timed_lookup)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
