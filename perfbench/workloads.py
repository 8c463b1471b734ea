"""The benchmark's workloads, each driven only through public ``repro`` APIs.

A workload's :meth:`setup` builds one session from a seed.  The runner
then calls :meth:`step` until its time is up; each step runs one or
more *operations* (a simulated period, or a broadcast in
``batch_broadcast``), checks their outputs, and reports how many it
attempted and how many failed.  :meth:`finish` closes the session and
returns its deterministic outputs (digests, counts, §IV-C metrics);
:meth:`verify` runs the end-of-run checks that are too costly to time.

Why these four workloads: they are the four execution planes a
performance change can land in, and each leaves the others' layers
idle, so every change has a workload where it shows and one where it
must not (see README.md for the per-layer table).
"""

from __future__ import annotations

import hashlib
import os
import sys
from typing import Any, Dict, List, Tuple

from repro import SystemConfig
from repro.core import BatchOverlay, Overlay
from repro.dissemination import (
    BatchBroadcastEngine,
    ChannelSnapshot,
    EpidemicBroadcast,
)
from repro.experiments import (
    PAPER,
    QUICK,
    clear_graph_cache,
    make_config,
    make_trust_graph,
)
from repro.graphs.fastgraph import SnapshotAnalysis
from repro.parallel import ShardedOverlay, ShardOptions
from repro.privlink import make_mixnet_link_layer
from repro.rng import RandomStreams

#: One step's result: (operations attempted, operations failed, messages).
StepResult = Tuple[int, int, List[str]]

#: Availability and trust-sampling fraction of the event-driven planes.
ALPHA = 0.5
SAMPLING_F = 0.5


def batch_config(seed: int) -> SystemConfig:
    """The ``million_node_churn`` configuration at 10⁵ nodes."""
    return SystemConfig(
        num_nodes=100_000,
        cache_size=16,
        shuffle_length=8,
        target_degree=12,
        min_pseudonym_links=8,
        availability=0.6,
        mean_offline_time=8.0,
        seed=seed,
    )


def _digest_update(digest: Any, *parts: Any) -> None:
    digest.update(repr(parts).encode())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# event-driven object plane (paper_overlay, mixnet_broadcast)
# ----------------------------------------------------------------------


class ObjectSession:
    """One :class:`Overlay` advanced a shuffling period per step.

    Each step optionally starts broadcasts at online origins, runs the
    simulator to the end of the period, then samples the §IV-C metrics
    from outside (``snapshot_fast`` + :class:`SnapshotAnalysis`, path
    length every ``path_every`` periods).  A period fails its check when
    the snapshot's node count differs from the online count, or when a
    broadcast started in it has an impossible record.
    """

    ops_per_step = 1

    def __init__(
        self,
        overlay: Overlay,
        tracer: Any,
        disseminator: Any = None,
        broadcasts_per_period: int = 0,
        fanout: int = 0,
        ttl: int = 0,
        path_every: int = 0,
        path_sources: Any = None,
    ) -> None:
        self.overlay = overlay
        self.tracer = tracer
        self.disseminator = disseminator
        self.broadcasts_per_period = broadcasts_per_period
        self.ttl = ttl
        self.fanout = fanout
        self.path_every = path_every
        self.path_sources = path_sources
        self.nodes = overlay.config.num_nodes
        self.period = 0
        self.node_periods = 0
        self.messages = 0
        self.online_sum = 0
        self.disconnected_sum = 0.0
        self.records: List[Any] = []
        self._path_rng = overlay.substream("bench", "path-sources")
        self._origin_rng = overlay.substream("bench", "origins")
        self._start = overlay.stats()
        self._sent = self._start.messages_sent
        self._start_events = overlay.sim.events_processed
        self._digest = hashlib.sha256()

    def trace_points(self) -> List[Tuple[Any, str, str]]:
        """Layer boundaries, resolved from the live objects."""
        overlay = self.overlay
        node = overlay.nodes[0]
        layer = overlay.link_layer
        points = [
            (type(overlay.sim), "run_until", "sim.run_until"),
            (type(node.cache), "merge", "core.cache_merge"),
            (type(node.slots), "offer_batch", "core.sampler_fold"),
            (type(node.links), "update_from_sample", "core.link_update"),
            (type(layer), "send_to_node", "privlink.send"),
            (type(layer), "send_to_endpoint", "privlink.send"),
            (type(layer), "send_reverse", "privlink.send"),
        ]
        network = getattr(layer, "network", None)
        if network is not None:
            points.append((type(network.relays[0]), "process", "privlink.relay"))
        if self.disseminator is not None:
            kind = type(self.disseminator)
            base = sys.modules[kind._refresh_adjacency.__module__]
            points.append((kind, "broadcast", "dissemination.broadcast"))
            points.append(
                (base, "build_channel_lists", "dissemination.adjacency_build")
            )
        return points

    def _check_record(self, record: Any) -> List[str]:
        rounds = record.delivery_rounds
        problems = []
        if rounds.get(record.origin) != 0:
            problems.append(f"broadcast {record.message_id}: origin not at round 0")
        if max(rounds.values()) > self.ttl:
            problems.append(f"broadcast {record.message_id}: delivered past ttl")
        if record.deliveries() > self.nodes:
            problems.append(
                f"broadcast {record.message_id}: more deliveries than nodes"
            )
        deliveries = record.deliveries()
        if not deliveries - 1 <= record.forwards <= self.fanout * deliveries:
            problems.append(
                f"broadcast {record.message_id}: {record.forwards} forwards "
                f"for {record.deliveries()} deliveries"
            )
        return problems

    def step(self) -> StepResult:
        overlay = self.overlay
        tracer = self.tracer
        fresh = []
        if self.broadcasts_per_period:
            online = overlay.online_ids()
            picks = self._origin_rng.choice(
                len(online),
                size=min(self.broadcasts_per_period, len(online)),
                replace=False,
            )
            for pick in picks:
                fresh.append(
                    self.disseminator.broadcast(online[int(pick)], payload=None)
                )
        self.period += 1
        overlay.run_until(float(self.period))
        online_ids = overlay.online_ids()
        sent = overlay.stats(online_ids).messages_sent
        with tracer.span("metrics.snapshot"):
            snapshot = overlay.snapshot_fast(online_ids=online_ids)
        with tracer.span("metrics.analysis"):
            analysis = SnapshotAnalysis(snapshot)
            disconnected = analysis.fraction_disconnected()
            path = None
            if self.path_every and self.period % self.path_every == 0:
                path = analysis.normalized_path_length(
                    self.nodes,
                    sample_sources=self.path_sources,
                    rng=self._path_rng,
                )
        problems = []
        if snapshot.num_nodes != len(online_ids):
            problems.append(
                f"period {self.period}: snapshot has {snapshot.num_nodes} "
                f"nodes, {len(online_ids)} online"
            )
        for record in fresh:
            problems.extend(self._check_record(record))
        self.records.extend(fresh)
        self.node_periods += self.nodes
        self.messages += sent - self._sent + sum(r.forwards for r in fresh)
        self._sent = sent
        self.online_sum += len(online_ids)
        self.disconnected_sum += disconnected
        _digest_update(
            self._digest,
            self.period,
            len(online_ids),
            disconnected,
            path,
            overlay.sim.events_processed,
            [(r.origin, r.deliveries(), r.forwards) for r in fresh],
        )
        return 1, int(bool(problems)), problems

    def finish(self) -> Dict[str, Any]:
        overlay = self.overlay
        stats = overlay.stats()
        start = self._start
        messages = stats.messages_sent - start.messages_sent
        hits = stats.circuit_cache_hits - start.circuit_cache_hits
        misses = stats.circuit_cache_misses - start.circuit_cache_misses
        delivered = sum(r.deliveries() - 1 for r in self.records)
        forwards = sum(r.forwards for r in self.records)
        periods = max(self.period, 1)
        outputs = {
            "digest": self._digest.hexdigest(),
            "operations": self.period,
            "msgs_per_node_period": _ratio(messages, self.online_sum),
            "disconnected_frac": self.disconnected_sum / periods,
            "layers": {
                "sim.events": overlay.sim.events_processed - self._start_events,
                "core.messages": messages,
                "core.link_replacements": (
                    stats.link_replacements - start.link_replacements
                ),
                "privlink.circuit_hit_ratio": _ratio(hits, hits + misses),
                "privlink.replays_dropped": (
                    stats.replays_dropped - start.replays_dropped
                ),
                "dissemination.broadcasts": len(self.records),
                "dissemination.useful_ratio": _ratio(delivered, forwards),
                "metrics.samples": self.period,
            },
        }
        if self.disseminator is not None:
            outputs["deliveries"] = delivered
            outputs["coverage_mean"] = _ratio(
                sum(r.coverage(self.nodes) for r in self.records),
                len(self.records),
            )
        return outputs

    def verify(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class PaperOverlay:
    name = "paper_overlay"

    def setup(self, seed: int, tracer: Any) -> ObjectSession:
        clear_graph_cache()
        with tracer.span("graphs.trust_graph"):
            trust = make_trust_graph(PAPER, f=SAMPLING_F, seed=seed)
        clear_graph_cache()
        config = make_config(PAPER, alpha=ALPHA, f=SAMPLING_F, seed=seed)
        with tracer.span("core.build"):
            overlay = Overlay.build(trust, config)
            overlay.start()
        return ObjectSession(
            overlay,
            tracer,
            path_every=PAPER.path_length_every,
            path_sources=PAPER.path_sources,
        )


class MixnetBroadcast:
    name = "mixnet_broadcast"
    relays = 20
    circuit_length = 3
    fanout = 4
    ttl = 8
    broadcasts_per_period = 3

    def setup(self, seed: int, tracer: Any) -> ObjectSession:
        clear_graph_cache()
        with tracer.span("graphs.trust_graph"):
            trust = make_trust_graph(QUICK, f=SAMPLING_F, seed=seed)
        clear_graph_cache()
        config = make_config(QUICK, alpha=ALPHA, f=SAMPLING_F, seed=seed)

        def mixnet(sim: Any, rng: Any) -> Any:
            return make_mixnet_link_layer(
                sim, rng, num_relays=self.relays, circuit_length=self.circuit_length
            )

        with tracer.span("core.build"):
            overlay = Overlay.build(trust, config, link_layer_factory=mixnet)
            overlay.start()
        disseminator = EpidemicBroadcast(overlay, fanout=self.fanout, ttl=self.ttl)
        disseminator.install()
        return ObjectSession(
            overlay,
            tracer,
            disseminator=disseminator,
            broadcasts_per_period=self.broadcasts_per_period,
            fanout=self.fanout,
            ttl=self.ttl,
        )


# ----------------------------------------------------------------------
# sharded batch engine across worker processes (shard_rounds)
# ----------------------------------------------------------------------


class ShardSession:
    """A :class:`ShardedOverlay` advanced one round per step.

    A round fails its check when the workers report a round number
    other than the one just run.  :meth:`verify` re-runs the same rounds
    in-process with ``BatchOverlay(num_shards=...)`` and requires the
    same state digest and counters.
    """

    ops_per_step = 1

    def __init__(self, overlay: ShardedOverlay, config: SystemConfig, tracer: Any):
        self.overlay = overlay
        self.config = config
        self.tracer = tracer
        self.nodes = config.num_nodes
        self.rounds = 0
        self.node_periods = 0
        self.messages = 0
        self.online_sum = 0
        self._start = overlay.stats()
        self._sent = self._start["messages_sent"]
        self._digest = hashlib.sha256()
        self._final: Dict[str, Any] = {}

    def trace_points(self) -> List[Tuple[Any, str, str]]:
        # The transport boundary has no public function: the parent's
        # per-worker receive and send are the narrowest calls around it.
        kind = type(self.overlay)
        return [
            (kind, "_recv", "shard.parent_wait"),
            (kind, "_send", "shard.parent_send"),
        ]

    def step(self) -> StepResult:
        with self.tracer.span("shard.round"):
            self.overlay.run(1)
        self.rounds += 1
        stats = self.overlay.stats()
        problems = []
        if stats["round"] != self.rounds:
            problems.append(
                f"workers at round {stats['round']}, expected {self.rounds}"
            )
        self.node_periods += self.nodes
        self.messages += stats["messages_sent"] - self._sent
        self._sent = stats["messages_sent"]
        self.online_sum += stats["online_nodes"]
        _digest_update(self._digest, sorted(stats.items()))
        return 1, int(bool(problems)), problems

    def finish(self) -> Dict[str, Any]:
        overlay = self.overlay
        tracer = self.tracer
        state = overlay.state_digest()
        stats = overlay.stats()
        with tracer.span("metrics.snapshot"):
            snapshot = overlay.snapshot()
        with tracer.span("metrics.analysis"):
            disconnected = SnapshotAnalysis(snapshot).fraction_disconnected()
        overlay.close()
        self._final = {"state": state, "stats": stats}
        start = self._start
        messages = stats["messages_sent"] - start["messages_sent"]
        return {
            "digest": self._digest.hexdigest(),
            "state_digest": state,
            "operations": self.rounds,
            "msgs_per_node_period": _ratio(messages, self.online_sum),
            "disconnected_frac": disconnected,
            "layers": {
                "metrics.samples": 1,
                "batch.exchanges": stats["exchanges"] - start["exchanges"],
                "batch.link_additions": (
                    stats["link_additions"] - start["link_additions"]
                ),
                "batch.link_removals": (
                    stats["link_removals"] - start["link_removals"]
                ),
            },
        }

    def verify(self) -> List[str]:
        reference = BatchOverlay.build(
            self.config,
            extra_edges_per_node=ShardRounds.extra_edges,
            num_shards=ShardRounds.shards,
        )
        reference.run(self._final["stats"]["round"])
        problems = []
        if reference.state_digest() != self._final["state"]:
            problems.append("sharded state digest differs from the in-process engine")
        if reference.stats() != self._final["stats"]:
            problems.append("sharded counters differ from the in-process engine")
        return problems

    def close(self) -> None:
        self.overlay.close()


class ShardRounds:
    name = "shard_rounds"
    shards = 2
    extra_edges = 4

    def setup(self, seed: int, tracer: Any) -> ShardSession:
        config = batch_config(seed)
        options = ShardOptions(
            num_shards=self.shards, workers=min(self.shards, os.cpu_count() or 1)
        )
        with tracer.span("shard.fork"):
            overlay = ShardedOverlay.build(
                config, extra_edges_per_node=self.extra_edges, options=options
            )
        # The session's first stats() call waits until every worker has
        # built its engines, so that cost lands in set-up.
        with tracer.span("shard.ready"):
            return ShardSession(overlay, config, tracer)


# ----------------------------------------------------------------------
# serial batch engine + vectorized dissemination (batch_broadcast)
# ----------------------------------------------------------------------


class BatchSession:
    """A warmed :class:`BatchOverlay` advanced one broadcast wave per step.

    A wave is one churn+shuffle round, a fresh :class:`ChannelSnapshot`,
    and ``ops_per_step`` concurrent epidemics on one
    :class:`BatchBroadcastEngine`, run until their frontiers are empty.
    A broadcast fails its check when its record is impossible (origin
    not at round 0, a delivery past the ttl, more deliveries than nodes
    online); every broadcast of a wave fails when the ledger totals
    disagree with the per-record views.
    """

    ops_per_step = 5

    def __init__(self, overlay: BatchOverlay, seed: int, tracer: Any) -> None:
        self.overlay = overlay
        self.tracer = tracer
        self.nodes = overlay.config.num_nodes
        self.waves = 0
        self.node_periods = 0
        self.messages = 0
        self.online_sum = 0
        self.broadcasts = 0
        self.delivered = 0
        self.forwards = 0
        self.coverage_sum = 0.0
        self.channels = 0
        self.engine_bytes = 0
        streams = RandomStreams(seed)
        self._keys_rng = streams.substream("bench", "broadcast-keys")
        self._origin_rng = streams.substream("bench", "origins")
        self._start = overlay.stats()
        self._digest = hashlib.sha256()

    def trace_points(self) -> List[Tuple[Any, str, str]]:
        overlay = self.overlay
        engine = overlay.engines[0]
        return [
            (type(overlay), "step", "batch.round"),
            (type(overlay.churn), "step", "batch.churn"),
            (type(engine), "begin_round", "batch.begin_round"),
            (type(engine), "build_sets", "batch.build_sets"),
            (type(engine), "absorb", "batch.absorb"),
        ]

    def step(self) -> StepResult:
        overlay = self.overlay
        tracer = self.tracer
        before = overlay.stats()
        overlay.run(1)
        after = overlay.stats()
        with tracer.span("bcast.snapshot_build"):
            snapshot = ChannelSnapshot.from_batch_overlay(overlay)
        online_count = overlay.churn.online_count()
        engine = BatchBroadcastEngine(
            snapshot,
            fanout=BatchBroadcast.fanout,
            ttl=BatchBroadcast.ttl,
            rng=self._keys_rng,
            online=overlay.churn.online,
        )
        tracer.wrap(type(engine), "step", "bcast.frontier_round")
        rows = overlay.churn.online_rows()
        picks = self._origin_rng.choice(
            len(rows), size=self.ops_per_step, replace=False
        )
        message_ids = engine.start([int(rows[int(pick)]) for pick in picks])
        with tracer.span("bcast.run"):
            engine.run()
        ledger = engine.ledger
        views = [ledger.record(message_id) for message_id in message_ids]
        failed = 0
        problems = []
        for view in views:
            rounds = view.delivery_rounds
            wrong = (
                rounds.get(view.origin) != 0
                or len(rounds) != view.deliveries()
                or view.max_latency() > BatchBroadcast.ttl
                or view.deliveries() > online_count
                or view.forwards > BatchBroadcast.fanout * view.deliveries()
            )
            if wrong:
                failed += 1
                problems.append(
                    f"wave {self.waves + 1}, broadcast {view.message_id}: "
                    f"{view.deliveries()} deliveries, {online_count} online"
                )
        delivered = ledger.total_delivered()
        forwards = ledger.total_forwards()
        if (
            delivered != sum(view.deliveries() for view in views)
            or delivered != engine.total_delivered
            or forwards != sum(view.forwards for view in views)
        ):
            failed = len(views)
            problems.append(
                f"wave {self.waves + 1}: ledger totals disagree with records"
            )
        self.waves += 1
        self.node_periods += self.nodes
        self.messages += after["messages_sent"] - before["messages_sent"] + forwards
        self.online_sum += after["online_nodes"]
        self.broadcasts += len(views)
        self.delivered += delivered - len(views)
        self.forwards += forwards
        self.coverage_sum += sum(view.coverage(self.nodes) for view in views)
        self.channels += snapshot.channel_count
        self.engine_bytes = max(self.engine_bytes, engine.memory_bytes())
        _digest_update(
            self._digest,
            after["messages_sent"] - before["messages_sent"],
            after["online_nodes"],
            snapshot.channel_count,
            [(view.origin, view.deliveries(), view.forwards) for view in views],
        )
        return len(views), failed, problems

    def finish(self) -> Dict[str, Any]:
        overlay = self.overlay
        stats = overlay.stats()
        start = self._start
        with self.tracer.span("metrics.snapshot"):
            snapshot = overlay.snapshot()
        with self.tracer.span("metrics.analysis"):
            disconnected = SnapshotAnalysis(snapshot).fraction_disconnected()
        messages = stats["messages_sent"] - start["messages_sent"]
        waves = max(self.waves, 1)
        return {
            "digest": self._digest.hexdigest(),
            "state_digest": overlay.state_digest(),
            "operations": self.broadcasts,
            "msgs_per_node_period": _ratio(messages, self.online_sum),
            "disconnected_frac": disconnected,
            "coverage_mean": _ratio(self.coverage_sum, self.broadcasts),
            "deliveries": self.delivered,
            "layers": {
                "metrics.samples": 1,
                "batch.exchanges": stats["exchanges"] - start["exchanges"],
                "batch.link_additions": (
                    stats["link_additions"] - start["link_additions"]
                ),
                "batch.link_removals": (
                    stats["link_removals"] - start["link_removals"]
                ),
                "bcast.channels": self.channels / waves,
                "bcast.forwards": self.forwards,
                "bcast.useful_ratio": _ratio(self.delivered, self.forwards),
                "bcast.engine_bytes": self.engine_bytes,
            },
        }

    def verify(self) -> List[str]:
        return []

    def close(self) -> None:
        pass


class BatchBroadcast:
    name = "batch_broadcast"
    warm_rounds = 6
    fanout = 4
    ttl = 16

    def setup(self, seed: int, tracer: Any) -> BatchSession:
        with tracer.span("core.build"):
            overlay = BatchOverlay.build(batch_config(seed), extra_edges_per_node=4)
        overlay.run(self.warm_rounds)
        return BatchSession(overlay, seed, tracer)


WORKLOADS = {
    workload.name: workload
    for workload in (PaperOverlay(), MixnetBroadcast(), ShardRounds(), BatchBroadcast())
}
