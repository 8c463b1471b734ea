"""networkx references for the Section IV-C metric pipelines.

The obvious implementations of the paper's churn metrics: rebuild an
``nx.Graph`` per sample (or per online-set draw) and run the reference
functions of :mod:`repro.graphs.metrics` on it.  They consume the RNG
in the same order as the flat-snapshot pipelines, so
``tests/test_fastgraph.py`` can hold
:class:`repro.metrics.MetricsCollector` and
:func:`repro.experiments.runner.static_churn_metrics` to byte-identical
values and to the same RNG state afterwards.
"""

from __future__ import annotations

from typing import List, Optional

import networkx as nx
import numpy as np

from repro.churn import online_subgraph, stationary_online_mask
from repro.experiments.runner import StaticMetrics
from repro.graphs import fraction_disconnected, largest_component, normalized_path_length
from repro.metrics import MetricsCollector


class ReferenceMetricsCollector(MetricsCollector):
    """The collector with each sample's graph metrics taken by networkx."""

    def _sample_graphs(
        self,
        now: float,
        total_nodes: int,
        online_ids: List[int],
        measure_paths: bool,
    ) -> None:
        overlay = self._overlay
        snapshot = overlay.snapshot(online_only=True, online_ids=online_ids)
        component = largest_component(snapshot)
        self.disconnected.append(
            now, fraction_disconnected(snapshot, component=component)
        )

        trust_snapshot = None
        trust_component: Optional[List[int]] = None
        if self._track_trust:
            trust_snapshot = overlay.trust_snapshot(online_ids=online_ids)
            trust_component = largest_component(trust_snapshot)
            self.trust_disconnected.append(
                now,
                fraction_disconnected(trust_snapshot, component=trust_component),
            )

        if measure_paths:
            self.path_length.append(
                now,
                normalized_path_length(
                    snapshot,
                    total_nodes,
                    sample_sources=self._path_length_sources,
                    rng=self._rng,
                    component=component,
                ),
            )
            if trust_snapshot is not None:
                self.trust_path_length.append(
                    now,
                    normalized_path_length(
                        trust_snapshot,
                        total_nodes,
                        sample_sources=self._path_length_sources,
                        rng=self._rng,
                        component=trust_component,
                    ),
                )

        max_out_degree = self._max_out_degree
        for node in overlay.nodes:
            if node.online:
                degree = node.out_degree(now)
                if degree > max_out_degree[node.node_id]:
                    max_out_degree[node.node_id] = degree


def reference_static_churn_metrics(
    graph: nx.Graph,
    alpha: float,
    draws: int,
    rng: np.random.Generator,
    path_sources: Optional[int] = 32,
    measure_paths: bool = True,
) -> StaticMetrics:
    """``static_churn_metrics`` with an ``nx.Graph`` rebuilt per draw."""
    total_nodes = graph.number_of_nodes()
    disconnected_values = []
    path_values = []
    degree_values = []
    for _ in range(draws):
        mask = stationary_online_mask(total_nodes, alpha, rng)
        induced = online_subgraph(graph, mask)
        disconnected_values.append(fraction_disconnected(induced))
        if induced.number_of_nodes() > 0:
            degrees = [degree for _, degree in induced.degree()]
            degree_values.append(float(np.mean(degrees)))
        if measure_paths:
            path_values.append(
                normalized_path_length(
                    induced, total_nodes, sample_sources=path_sources, rng=rng
                )
            )
    return StaticMetrics(
        disconnected=float(np.mean(disconnected_values)),
        path_length=float(np.mean(path_values)) if path_values else 0.0,
        mean_online_degree=float(np.mean(degree_values)) if degree_values else 0.0,
    )
