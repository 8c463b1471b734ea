"""Run one benchmark workload for one seed and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_overlay --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program running
its own code only.  ``--trace 1`` is the traced run: it first runs the
workload untraced for half the time, then sets it up again from the
same seed, wraps the layer boundaries (see ``tracing.py``) and runs
exactly as many steps.  It reports the per-layer metrics, the tracing
overhead against the untraced half, and fails its check unless both
halves produced identical deterministic outputs.  Its spans are written
to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from tracing import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.  Every workload reports each one.
END_TO_END = {
    "setup_s": "s",
    "msgs_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "msgs_per_node_period": "msg/node/period",
    "connected_frac": "frac",
}

#: Metrics the report prints where they apply, but the JSON omits:
#: each is absent from, or always zero on, some workloads.
REPORT_ONLY = {
    "node_periods_per_s": "1/s",
    "deliveries_per_s": "1/s",
    "disconnected_frac": "frac",
    "coverage_mean": "frac",
    "failed_ops_frac": "frac",
}

#: Per-layer metrics taken from spans: name -> (span, field, unit).
#: ``calls`` counts spans; ``time`` sums their durations; ``self``
#: sums durations minus those of direct child spans.
SPAN_METRICS = {
    "sim.dispatch_self_s": ("sim.run_until", "self", "s"),
    "core.cache_merge_s": ("core.cache_merge", "time", "s"),
    "core.cache_merge_calls": ("core.cache_merge", "calls", "count"),
    "core.sampler_fold_s": ("core.sampler_fold", "time", "s"),
    "core.sampler_fold_calls": ("core.sampler_fold", "calls", "count"),
    "core.link_update_s": ("core.link_update", "time", "s"),
    "privlink.sends": ("privlink.send", "calls", "count"),
    "privlink.send_s": ("privlink.send", "time", "s"),
    "privlink.relay_hops": ("privlink.relay", "calls", "count"),
    "privlink.relay_s": ("privlink.relay", "time", "s"),
    "dissemination.adjacency_builds": (
        "dissemination.adjacency_build", "calls", "count"
    ),
    "dissemination.adjacency_build_s": (
        "dissemination.adjacency_build", "time", "s"
    ),
    "metrics.snapshot_s": ("metrics.snapshot", "time", "s"),
    "metrics.analysis_s": ("metrics.analysis", "time", "s"),
    "batch.churn_s": ("batch.churn", "time", "s"),
    "batch.begin_round_s": ("batch.begin_round", "time", "s"),
    "batch.build_sets_s": ("batch.build_sets", "time", "s"),
    "batch.absorb_s": ("batch.absorb", "time", "s"),
    "batch.round_s": ("batch.round", "time", "s"),
    "shard.round_s": ("shard.round", "time", "s"),
    "shard.parent_wait_s": ("shard.parent_wait", "time", "s"),
    "shard.parent_send_s": ("shard.parent_send", "time", "s"),
    "shard.fork_s": ("shard.fork", "time", "s"),
    "bcast.snapshot_build_s": ("bcast.snapshot_build", "time", "s"),
    "bcast.frontier_rounds": ("bcast.frontier_round", "calls", "count"),
    "bcast.frontier_round_s": ("bcast.frontier_round", "time", "s"),
    "graphs.trust_graph_s": ("graphs.trust_graph", "time", "s"),
    "core.build_s": ("core.build", "time", "s"),
}

#: Per-layer metrics the session counts itself: name -> unit.
COUNT_METRICS = {
    "sim.events": "count",
    "core.messages": "count",
    "core.link_replacements": "count",
    "privlink.circuit_hit_ratio": "ratio",
    "privlink.replays_dropped": "count",
    "dissemination.broadcasts": "count",
    "dissemination.useful_ratio": "ratio",
    "metrics.samples": "count",
    "batch.exchanges": "count",
    "batch.link_additions": "count",
    "batch.link_removals": "count",
    "bcast.channels": "count",
    "bcast.forwards": "count",
    "bcast.useful_ratio": "ratio",
    "bcast.engine_bytes": "B",
}

#: Per-layer metrics about the traced run itself.
TRACE_METRICS = {"trace.overhead_frac": "frac", "trace.spans": "count"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric, name -> unit, in report order."""
    units = {name: spec[2] for name, spec in SPAN_METRICS.items()}
    units.update(COUNT_METRICS)
    units.update(TRACE_METRICS)
    return units


def ensure_sources() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no repro package under {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's, in MiB.

    The child term is the largest shard worker (0 when the workload
    forks none); workers are reaped when their overlay closes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Drive:
    """The outcome of driving one session through its steps."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.steps = 0
        self.elapsed = 0.0
        self.problems: List[str] = []


def drive(
    session: Any,
    tracer: Any,
    seconds: Optional[float] = None,
    steps: Optional[int] = None,
) -> Drive:
    """Step ``session`` for ``seconds`` (at least one step) or ``steps``.

    A step that raises counts all its operations as failed and ends the
    drive, since the session's state is then unknown.
    """
    result = Drive()
    started = time.perf_counter()
    while True:
        if steps is not None and result.steps >= steps:
            break
        if (
            seconds is not None
            and result.steps > 0
            and time.perf_counter() - started >= seconds
        ):
            break
        tracer.op = result.steps
        try:
            attempted, failed, problems = session.step()
        except Exception:  # a failed operation is reported, not fatal
            result.attempted += session.ops_per_step
            result.failed += session.ops_per_step
            result.problems.append(traceback.format_exc())
            result.steps += 1
            break
        result.attempted += attempted
        result.failed += failed
        result.problems.extend(problems)
        result.steps += 1
    result.elapsed = time.perf_counter() - started
    tracer.op = -1
    return result


def run_end_to_end(
    workload: Any, seed: int, seconds: float
) -> Tuple[Drive, Dict[str, float]]:
    """Set up ``SETUP_REPEATS`` times, drive the last set-up, check it."""
    tracer = NullTracer()
    setup_times = []
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            session = None
        gc.collect()
        started = time.perf_counter()
        session = workload.setup(seed, tracer)
        setup_times.append(time.perf_counter() - started)
    gc.collect()
    try:
        result = drive(session, tracer, seconds=seconds)
        outputs = session.finish()
        rss = peak_rss_mb()
        result.problems.extend(session.verify())
    finally:
        session.close()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "msgs_per_s": session.messages / result.elapsed,
        "node_periods_per_s": session.node_periods / result.elapsed,
        "peak_rss_mb": rss,
        "msgs_per_node_period": outputs["msgs_per_node_period"],
        "connected_frac": 1.0 - outputs["disconnected_frac"],
        "disconnected_frac": outputs["disconnected_frac"],
        "failed_ops_frac": result.failed / max(result.attempted, 1),
    }
    if "deliveries" in outputs:
        metrics["deliveries_per_s"] = outputs["deliveries"] / result.elapsed
        metrics["coverage_mean"] = outputs["coverage_mean"]
    return result, metrics


def trace_pair(
    workload: Any, seed: int, seconds: float
) -> Tuple[Drive, Dict[str, Any], Drive, Dict[str, Any], Any]:
    """Drive an untraced set-up for half the time, then a traced one.

    Returns ``(untraced drive, its outputs, traced drive, its outputs,
    tracer)``; the traced set-up runs exactly as many steps, so the two
    outputs must be identical.
    """
    session = workload.setup(seed, NullTracer())
    gc.collect()
    try:
        base = drive(session, NullTracer(), seconds=seconds / 2.0)
        base_outputs = session.finish()
    finally:
        session.close()
    session = None
    gc.collect()

    tracer = Tracer()
    session = workload.setup(seed, tracer)
    try:
        for owner, attr, name in session.trace_points():
            tracer.wrap(owner, attr, name)
        gc.collect()
        result = drive(session, tracer, steps=base.steps)
        outputs = session.finish()
    finally:
        tracer.close()
        session.close()
    result.problems.extend(session.verify())
    return base, base_outputs, result, outputs, tracer


def run_traced(
    workload: Any, seed: int, seconds: float
) -> Tuple[Drive, Dict[str, float], Any]:
    """The traced run: per-layer metrics of :func:`trace_pair`'s replay."""
    base, base_outputs, result, outputs, tracer = trace_pair(workload, seed, seconds)
    if outputs != base_outputs:
        result.problems.append(
            "traced outputs differ from the untraced run's: "
            f"{outputs} != {base_outputs}"
        )
    metrics: Dict[str, float] = {}
    totals = tracer.totals()
    field_index = {"calls": 0, "time": 1, "self": 2}
    for name, (span, field, _) in SPAN_METRICS.items():
        metrics[name] = totals.get(span, (0, 0.0, 0.0))[field_index[field]]
    for name in COUNT_METRICS:
        metrics[name] = outputs["layers"].get(name, 0)
    metrics["trace.overhead_frac"] = result.elapsed / base.elapsed - 1.0
    metrics["trace.spans"] = len(tracer.starts)
    result.attempted += base.attempted
    result.failed += base.failed
    result.problems.extend(base.problems)
    return result, metrics, tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    ensure_sources()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(
            f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}"
        )

    if args.trace:
        result, values, tracer = run_traced(workload, args.seed, args.seconds)
        units = per_layer_units()
        trace_path = os.path.join(
            HERE, "out", f"trace-{workload.name}-seed{args.seed}.npz"
        )
        tracer.dump(trace_path)
    else:
        result, values = run_end_to_end(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
        trace_path = None

    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{result.attempted} operations ({result.failed} failed); "
        f"{'traced ' if args.trace else ''}{result.steps} steps in "
        f"{result.elapsed:.2f} s"
    )
    shown = dict(units)
    if not args.trace:
        shown.update(
            (name, unit) for name, unit in REPORT_ONLY.items() if name in values
        )
    for name, unit in shown.items():
        print(f"  {name:32s} {values[name]:>16.6g} {unit}")
    if trace_path is not None:
        print(f"  spans written to {os.path.relpath(trace_path, ROOT)}")
    for problem in result.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    record = {
        "correct": not result.problems and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
