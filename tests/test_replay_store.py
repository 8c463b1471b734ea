"""Differential tests: the compact replay store against a plain set.

:class:`~repro.privlink.replay.CompactReplayStore` must be an exact
replacement for a relay's plain-set replay cache: after every
operation the drop decision, the size, the flush count and the
remembered digests equal those of :class:`PlainSetReplayStore`.
"""

import numpy as np
import pytest

from repro.core import Overlay
from repro.dissemination import EpidemicBroadcast
from repro.experiments import QUICK, clear_graph_cache, make_config, make_trust_graph
from repro.privlink import make_mixnet_link_layer, mixnet
from repro.privlink.replay import BITMAP_BITS, YOUNG_LIMIT, CompactReplayStore
from tests.oracles.replay import PlainSetReplayStore


def _digest_pool(seed, size):
    """Random 64-bit digests, plus groups sharing their prefilter bits
    (so the sorted-array probe runs on misses) and the extremes."""
    rng = np.random.default_rng(seed)
    pool = [int(value) for value in rng.integers(0, 2**64, size, dtype=np.uint64)]
    for low in (0, 7, BITMAP_BITS - 1):
        pool.extend(low + BITMAP_BITS * int(high) for high in rng.integers(1, 2**40, 40))
    pool.extend([0, 1, 2**63, 2**64 - 1])
    return pool


def _digest_stream(seed, pool, length):
    """Draws with repeats: mostly fresh-ish, a fifth re-sends a recent digest."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(length):
        if stream and rng.random() < 0.2:
            stream.append(stream[-1 - int(rng.integers(0, min(len(stream), 50)))])
        else:
            stream.append(pool[int(rng.integers(0, len(pool)))])
    return stream


class TestCompactAgainstPlainSet:
    @pytest.mark.parametrize("limit", [10, 65536, None])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_identical_after_every_operation(self, limit, seed):
        pool = _digest_pool(seed, 6000)
        stream = _digest_stream(seed, pool, 9000)
        store = CompactReplayStore(limit)
        oracle = PlainSetReplayStore(limit)
        largest = 0
        for step, digest in enumerate(stream):
            assert store.remember(digest) == oracle.remember(digest), step
            assert len(store) == len(oracle), step
            assert store.flushes == oracle.flushes, step
            largest = max(largest, len(oracle))
            if step % 500 == 0:
                assert sorted(store) == sorted(oracle), step
            if step == 6000:
                store.clear()
                oracle.clear()
        assert sorted(store) == sorted(oracle)
        assert all(type(digest) is int for digest in store)
        if limit == 10:
            assert oracle.flushes > 100
        else:
            # Young sets never exceed YOUNG_LIMIT, so this many digests
            # took several merges into the sorted array.
            assert oracle.flushes == 0
            assert largest >= 6 * YOUNG_LIMIT

    def test_flush_point_after_merges(self):
        limit = 3 * YOUNG_LIMIT + 5
        store = CompactReplayStore(limit)
        oracle = PlainSetReplayStore(limit)
        for digest in range(limit):
            assert store.remember(digest) and oracle.remember(digest)
        assert len(store) == limit
        assert not store.remember(0)
        assert store.remember(limit)
        assert oracle.remember(limit)
        assert (len(store), store.flushes) == (len(oracle), oracle.flushes) == (1, 1)
        # Everything before the flush is forgotten, exactly as in the set.
        assert store.remember(0) and oracle.remember(0)
        assert sorted(store) == sorted(oracle) == [0, limit]


def _overlay_stats(seed, periods):
    clear_graph_cache()
    trust = make_trust_graph(QUICK, f=0.5, seed=seed)
    clear_graph_cache()
    config = make_config(QUICK, alpha=0.5, f=0.5, seed=seed)

    def factory(sim, rng):
        # A small limit, so that the run both merges and flushes.
        return make_mixnet_link_layer(sim, rng, replay_cache_limit=1000)

    overlay = Overlay.build(trust, config, link_layer_factory=factory)
    overlay.start()
    disseminator = EpidemicBroadcast(overlay, fanout=4, ttl=8)
    disseminator.install()
    origins = overlay.substream("test", "origins")
    for period in range(1, periods + 1):
        online = overlay.online_ids()
        for pick in origins.choice(len(online), size=3, replace=False):
            disseminator.broadcast(online[int(pick)], payload=None)
        overlay.run_until(float(period))
    return overlay.stats(), overlay.sim.events_processed


class TestOverlayWithOracle:
    def test_quick_mixnet_overlay_stats_identical(self, monkeypatch):
        compact = _overlay_stats(seed=4, periods=12)
        monkeypatch.setattr(mixnet, "CompactReplayStore", PlainSetReplayStore)
        reference = _overlay_stats(seed=4, periods=12)
        assert compact == reference
        stats = compact[0]
        assert stats.replays_dropped > 0
        assert stats.replay_cache_flushes > 0
