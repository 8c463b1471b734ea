"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracing import Tracer

run.ensure_sources()

from workloads import WORKLOADS  # noqa: E402  (needs the sources on the path)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


#: The layer each workload is heavy on, as one span that must be recorded.
HEAVY_SPAN = {
    "paper_overlay": "core.cache_merge",
    "mixnet_broadcast": "privlink.relay",
    "shard_rounds": "shard.round",
    "batch_broadcast": "bcast.frontier_round",
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_matches_untraced_run(name):
    """Wrappers never feed back into simulation state."""
    base, base_outputs, traced, outputs, tracer = run.trace_pair(
        WORKLOADS[name], seed=3, seconds=0.01
    )
    assert traced.steps == base.steps >= 1
    assert traced.problems == [] and base.problems == []
    assert traced.failed == 0 and base.failed == 0
    for key in ("digest", "msgs_per_node_period", "disconnected_frac", "layers"):
        assert key in outputs
    assert outputs == base_outputs
    assert tracer.totals()[HEAVY_SPAN[name]][0] > 0


def test_wrappers_are_removed_on_close():
    class Base:
        def work(self, x):
            return x + 1

    class Child(Base):
        pass

    original = Base.work
    tracer = Tracer()
    tracer.wrap(Child, "work", "child.work")
    tracer.wrap(Child, "work", "child.work")  # idempotent
    assert Child().work(1) == 2
    tracer.close()
    assert "work" not in vars(Child)
    assert Base.work is original
    assert tracer.totals()["child.work"][0] == 1


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    calls, inclusive, own = tracer.totals()["outer"]
    inner_calls, inner_time, _ = tracer.totals()["inner"]
    assert calls == 1 and inner_calls == 2
    assert own == pytest.approx(inclusive - inner_time)
    assert tracer.parents == [-1, 0, 0]


def test_exits_nonzero_without_the_program(tmp_path):
    """Only the benchmark's own files: fail fast and print no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_overlay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
