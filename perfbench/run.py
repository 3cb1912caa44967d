"""End-to-end partitioning benchmark.

    python3 perfbench/run.py --workload kway-road --seed 0 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src``.
``--trace 0`` measures the end-to-end metrics with nothing patched,
times scaled to a reference host speed (see ``hostspeed.py``).
``--trace 1`` alternates untraced ops with ops whose layer functions are
wrapped (see ``layers.py``) and prints the per-layer metrics.  Every
op's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The workloads are listed in ``BENCHMARK.json``; ``README.md`` explains
the inputs and what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import itertools
import json
import multiprocessing
import multiprocessing.resource_tracker
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from layers import KERNELS, LayerRecorder

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


class Op:
    __slots__ = ("seconds", "cut", "error", "digest")

    def __init__(self, seconds, error=None):
        self.seconds, self.error = seconds, error
        self.cut = self.digest = None


def run_op(w, call):
    """Time ``call()`` and check its output with ``w.check``.  Returns
    the op, which keeps only ``w.digest`` of the output, and the output."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception:
        return Op(time.perf_counter() - t0, error=traceback.format_exc()), None
    op = Op(time.perf_counter() - t0)
    try:
        op.cut = w.check(out)
        op.digest = w.digest(out)
    except Exception:
        op.error = traceback.format_exc()
    return op, out


def timed_phase(w, seconds: float, speed=None):
    """Runs whole rounds of ops on the inputs ``w.prepare`` readies: at
    least one round, and another only while a round as long as the last
    would end within ``seconds``.  Every op is kept, failed or not.
    ``speed``, a :class:`HostSpeed`, is sampled between ops."""
    ops = []
    start = time.perf_counter()
    for i in itertools.count():
        j = i % w.round_len
        if j == 0:
            round_start = time.perf_counter()
        w.prepare(j)
        if speed is not None:
            speed.maybe_sample()
        ops.append(run_op(w, w.op)[0])
        now = time.perf_counter()
        if (j == w.round_len - 1
                and now - start + (now - round_start) > seconds):
            return ops


def settle(w, ops) -> None:
    """Run the workload's checks that need every op's output."""
    for op, error in zip(ops, w.finish([op.digest for op in ops])):
        if error is not None and op.error is None:
            op.error = error


def setup(w, seed: int, speed=None) -> float:
    """Input generation plus one checked warm-up op, in seconds.
    ``speed``, a :class:`HostSpeed`, is sampled just before."""
    if speed is not None:
        speed.sample()
    gc.collect()
    t0 = time.perf_counter()
    w.setup(seed)
    warm, _ = run_op(w, w.op)
    elapsed = time.perf_counter() - t0
    if warm.error is not None:
        raise RuntimeError(f"warm-up op failed:\n{warm.error}")
    return elapsed


def p50(ops) -> float:
    return statistics.median(op.seconds for op in ops)


def source_digest() -> str:
    """sha256 over ``src/**/*.py``, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, preset: str) -> dict:
    import numpy

    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    return {
        "workload": workload, "seed": seed, "preset": preset,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha,
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(w, seed: int, seconds: float):
    """The bounded metrics, with every time scaled to reference seconds
    (see ``hostspeed.py``), and the unbounded extras, raw times among
    them."""
    speed = HostSpeed()
    setups = [setup(w, seed, speed) for _ in range(SETUP_REPEATS)]
    ops = timed_phase(w, seconds, speed)
    settle(w, ops)
    good = [op for op in ops if op.error is None]
    scale = speed.scale()
    raw = {
        "op_p50_s": p50(ops),
        "ops_per_s": len(ops) / sum(op.seconds for op in ops),
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "op_p50_s": (raw["op_p50_s"] * scale, "s"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "cut": (statistics.fmean(op.cut for op in good) if good else 0.0,
                "weight"),
        "setup_s": (raw["setup_s"] * scale, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # reported where they apply, outside the bounded metric set
    extra = {"failed_frac": (sum(op.error is not None for op in ops)
                             / len(ops), "ratio")}
    times = [op.seconds for op in ops]
    if len(times) >= 100:  # at least ten samples beyond the p90
        extra["op_p90_s"] = (statistics.quantiles(times, n=10)[-1] * scale,
                             "s")
    extra.update({f"raw_{name}": (value, metrics[name][1])
                  for name, value in raw.items()})
    extra["host_reference_s"] = (speed.median_s(), "s")
    extra.update(w.extra_metrics([op.digest for op in good]))
    return ops, metrics, extra


#: per-layer metrics averaged per op: (recorder table, key, unit).
#: ``seconds`` and ``calls`` are kept per wrapped metric, ``counters``
#: by the probes in ``layers.py``.
PER_OP = {
    "coarsening.coarsen_s": ("seconds", "coarsening.coarsen", "s"),
    "coarsening.match_s": ("seconds", "coarsening.match", "s"),
    "coarsening.match_calls": ("calls", "coarsening.match", "count"),
    "coarsening.rate_s": ("seconds", "coarsening.rate", "s"),
    "coarsening.contract_s": ("seconds", "coarsening.contract", "s"),
    "coarsening.levels": ("calls", "coarsening.contract", "count"),
    "initial.partition_s": ("seconds", "initial.partition", "s"),
    "initial.calls": ("calls", "initial.partition", "count"),
    "refinement.refine_s": ("seconds", "refinement.refine", "s"),
    "refinement.pair_s": ("seconds", "refinement.pair", "s"),
    "refinement.pair_calls": ("calls", "refinement.pair", "count"),
    "refinement.band_s": ("seconds", "refinement.band", "s"),
    "refinement.band_nodes": ("counters", "refinement.band_nodes", "count"),
    "refinement.fm_s": ("seconds", "refinement.fm", "s"),
    "refinement.fm_calls": ("calls", "refinement.fm", "count"),
    "refinement.fm_moves_tried": ("counters", "refinement.fm_moves_tried",
                                  "count"),
    "graph.subgraph_s": ("seconds", "graph.subgraph", "s"),
    "graph.subgraph_calls": ("calls", "graph.subgraph", "count"),
    "graph.dynamic_apply_s": ("seconds", "graph.dynamic_apply", "s"),
    "graph.dynamic_csr_s": ("seconds", "graph.dynamic_csr", "s"),
    "incremental.apply_s": ("seconds", "incremental.apply", "s"),
    "incremental.band_nodes": ("counters", "incremental.band_nodes", "count"),
    "incremental.fallbacks": ("counters", "incremental.fallbacks", "count"),
    "incremental.migrated_frac": ("counters", "incremental.migrated_frac",
                                  "ratio"),
    **{f"kernels.{name}_{stat}": (table, f"kernels.{name}", unit)
       for name in KERNELS
       for stat, table, unit in (("s", "seconds", "s"),
                                 ("calls", "calls", "count"))},
}

#: useful work over attempts, over the whole traced phase
RATIOS = {
    "coarsening.matched_frac": (("counters", "coarsening.matched_nodes"),
                                ("counters", "coarsening.match_nodes")),
    "refinement.fm_kept_ratio": (("counters", "refinement.fm_moves_kept"),
                                 ("counters", "refinement.fm_moves_tried")),
    "refinement.pair_improved_ratio": (
        ("counters", "refinement.pair_improved"),
        ("calls", "refinement.pair")),
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, n_ops: int, op_seconds: float) -> dict:
    """The recorder's totals as per-layer metrics; ``op_seconds`` is the
    traced ops' total time."""
    def total(table: str, key: str) -> float:
        return getattr(rec, table)[key]

    out = {name: (ratio(total(table, key), n_ops), unit)
           for name, (table, key, unit) in PER_OP.items()}
    out.update({name: (ratio(total(*num), total(*den)), "ratio")
                for name, (num, den) in RATIOS.items()})
    s = rec.seconds
    phases = (s["coarsening.coarsen"] + s["initial.partition"]
              + s["refinement.refine"])
    out["trace.phase_accounted_frac"] = (ratio(phases, op_seconds), "ratio")
    return out


ENGINE_METRICS = (
    ("messages", "count"), ("bytes", "bytes"), ("collective_edges", "count"),
    ("message_edges", "count"), ("wait_fraction", "ratio"),
    ("critical_path_s", "s"), ("compute_s", "s"), ("recv_wait_s", "s"),
    ("collective_wait_s", "s"), ("load_imbalance", "ratio"),
    ("process_messages_sent", "count"), ("process_bytes_sent", "bytes"),
    ("sequential_messages_sent", "count"),
    ("sequential_bytes_sent", "bytes"),
)


def engine_metrics(doc: dict, process_stats: dict,
                   sequential_stats: dict):
    """Engine and wait numbers of one observed run, and an error message
    when its per-PE compute and wait buckets do not sum to the PE's wall
    time.

    Message and byte counts come from the observed comm matrix, which
    books every engine's traffic under the same rank-0 star model; the
    engines' own ``messages_sent``/``bytes_sent`` counters are recorded
    beside them so the gap between the two stays visible.
    """
    from repro.observability import analyze_trace

    an = analyze_trace(doc)
    error = None
    for row in an["per_pe"]:
        buckets = row["compute_s"] + row["recv_wait_s"] + row["coll_wait_s"]
        if abs(buckets - row["wall_s"]) > 1e-6 * max(1.0, row["wall_s"]):
            error = (f"PE {row['pe']}: wait buckets {buckets} s do not sum "
                     f"to wall {row['wall_s']} s")
    cells = doc["comm_matrix"]
    values = {
        "messages": sum(cell["messages"] for cell in cells),
        "bytes": sum(cell["bytes"] for cell in cells),
        "collective_edges": an["edges"]["collective"],
        "message_edges": an["edges"]["message"],
        "wait_fraction": an["wait_fraction"],
        "critical_path_s": an["critical_path_s"],
        "compute_s": sum(row["compute_s"] for row in an["per_pe"]),
        "recv_wait_s": sum(row["recv_wait_s"] for row in an["per_pe"]),
        "collective_wait_s": sum(row["coll_wait_s"] for row in an["per_pe"]),
        "load_imbalance": an["load_imbalance"],
        "process_messages_sent": process_stats["messages_sent"],
        "process_bytes_sent": process_stats["bytes_sent"],
        "sequential_messages_sent": sequential_stats["messages_sent"],
        "sequential_bytes_sent": sequential_stats["bytes_sent"],
    }
    return {f"engine.{name}": (float(values[name]), unit)
            for name, unit in ENGINE_METRICS}, error


def interleaved(w, seconds: float, traced_op, tracing):
    """Untraced and traced ops in alternating segments of
    ``w.segment_len`` ops on the same inputs, so that both see the same
    machine, for at least ``seconds``.  ``tracing()`` is the context the
    traced segments run in."""
    plain, traced_ops = [], []
    start = time.perf_counter()
    for segment in itertools.count():
        if plain and time.perf_counter() - start >= seconds:
            return plain, traced_ops
        first = segment * w.segment_len % w.round_len
        for ops, op, context in ((plain, w.op, contextlib.nullcontext),
                                 (traced_ops, traced_op, tracing)):
            with context():
                for j in range(first, first + w.segment_len):
                    w.prepare(j)
                    ops.append(run_op(w, op)[0])


def traced(w, seed: int, seconds: float):
    """Per-layer metrics from a traced run (see ``interleaved``)."""
    setup(w, seed)
    metrics = {f"engine.{name}": (0.0, unit) for name, unit in ENGINE_METRICS}
    if w.name == "spmd-process":
        plain, ops, extra = traced_spmd(w, seconds, metrics)
    else:
        rec = LayerRecorder()
        plain, ops = interleaved(w, seconds, w.op, rec.patched)
        extra = []
        metrics.update(layer_metrics(rec, len(ops),
                                     sum(op.seconds for op in ops)))
    settle(w, plain + ops)
    metrics["trace.overhead_frac"] = (p50(ops) / p50(plain) - 1.0, "ratio")
    return plain + ops + extra, metrics


def traced_spmd(w, seconds: float, metrics: dict):
    """Engine and wait numbers from observed process-engine runs, with
    nothing patched (the engine forks, and its children would inherit
    the wrappers); layer times from one patched run of the same program
    on the sequential engine, which is also the bit-identity reference.
    Adds them to ``metrics``; returns the untraced, observed and
    sequential ops.
    """
    from repro.instrument import Tracer

    observed = w.config.derive(observe=True)
    last = {}

    def observed_op():
        tracer = Tracer()
        out = w.run("process", config=observed, tracer=tracer)
        last.update(doc=tracer.to_dict(), stats=out[1].stats)
        return out

    plain, ops = interleaved(w, seconds, observed_op,
                             contextlib.nullcontext)
    rec = LayerRecorder(clock=time.thread_time)
    with rec.patched():
        ref, ref_out = run_op(w, functools.partial(w.run, "sequential"))
    metrics.update(layer_metrics(rec, 1, ref.seconds))
    if ref.error is None and ops[-1].error is None:
        w.reference = ref.digest
        engine, ops[-1].error = engine_metrics(last["doc"], last["stats"],
                                               ref_out[1].stats)
        metrics.update(engine)
    return plain, ops, [ref]


def reap_children() -> None:
    """Wait for every process the run started.  Besides the engine's
    workers, the first shared-memory segment starts multiprocessing's
    resource tracker, which is not a ``Process`` and would otherwise
    outlive the run (and, under an init that does not reap, stay as a
    zombie); ``_stop`` closes its pipe and waits for it to exit."""
    for child in multiprocessing.active_children():
        child.join()
    multiprocessing.resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        reap_children()


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"repro package not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import PRESET, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]()
    print("provenance: " + json.dumps(provenance(args.workload, args.seed,
                                                 PRESET)))
    if args.trace:
        ops, metrics = traced(w, args.seed, args.seconds)
        extra = {}
    else:
        ops, metrics, extra = end_to_end(w, args.seed, args.seconds)

    failed = [op for op in ops if op.error is not None]
    for op in failed[:3]:
        print(op.error, file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(f"{'ops':<36} {len(ops):>16d} count")
    reap_children()
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
