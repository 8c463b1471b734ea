"""Tests for the static coalition analysis."""

import networkx as nx
import numpy as np
import pytest

from repro.attacks import (
    coalition_exposure,
    cut_components,
    is_vertex_cut,
)
from repro.attacks.analysis import _remainder_analysis
from repro.errors import ExperimentError
from repro.graphs import generate_social_graph


@pytest.fixture
def barbell():
    """Two triangles joined through node 3 (a cut vertex)."""
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (1, 2), (2, 0)])  # left triangle
    graph.add_edges_from([(4, 5), (5, 6), (6, 4)])  # right triangle
    graph.add_edges_from([(2, 3), (3, 4)])  # bridge through 3
    return graph


class TestVertexCut:
    def test_cut_vertex_detected(self, barbell):
        assert is_vertex_cut(barbell, [3])

    def test_non_cut_vertex(self, barbell):
        assert not is_vertex_cut(barbell, [0])

    def test_cut_components(self, barbell):
        components = cut_components(barbell, [3])
        assert len(components) == 2
        sizes = sorted(len(component) for component in components)
        assert sizes == [3, 3]

    def test_whole_graph_coalition_not_a_cut(self, barbell):
        assert not is_vertex_cut(barbell, list(barbell.nodes()))

    def test_cut_set_of_two(self):
        graph = nx.path_graph(5)  # 0-1-2-3-4
        assert is_vertex_cut(graph, [2])
        assert is_vertex_cut(graph, [1, 3])
        assert not is_vertex_cut(graph, [0, 4])


class TestCoalitionExposure:
    def test_known_ids_are_members_plus_neighbors(self, barbell):
        exposure = coalition_exposure(barbell, [0])
        assert exposure.known_ids == frozenset({0, 1, 2})

    def test_vertex_cut_flag(self, barbell):
        assert coalition_exposure(barbell, [3]).forms_vertex_cut
        assert not coalition_exposure(barbell, [1]).forms_vertex_cut

    def test_isolated_pair_detected(self):
        # Coalition {2} separates the trust-edge pair (0, 1).
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
        exposure = coalition_exposure(graph, [2])
        assert exposure.forms_vertex_cut
        assert (0, 1) in exposure.isolated_pairs

    def test_no_isolated_pairs_without_cut(self, barbell):
        exposure = coalition_exposure(barbell, [0])
        assert exposure.isolated_pairs == ()

    def test_probe_targets_are_adjacent_non_members(self, barbell):
        exposure = coalition_exposure(barbell, [3])
        # 3's neighbors are 2 and 4; the only probe pair is (2, 4).
        assert exposure.probe_targets == ((2, 4),)

    def test_probe_target_cap(self):
        graph = nx.star_graph(20)
        exposure = coalition_exposure(graph, [0], max_probe_targets=5)
        assert len(exposure.probe_targets) == 5

    def test_empty_coalition_rejected(self, barbell):
        with pytest.raises(ExperimentError):
            coalition_exposure(barbell, [])

    def test_unknown_member_rejected(self, barbell):
        with pytest.raises(ExperimentError):
            coalition_exposure(barbell, [99])

    def test_id_disclosure_counts_non_members(self, barbell):
        exposure = coalition_exposure(barbell, [0, 1])
        assert exposure.id_disclosure_fraction == 1.0  # only node 2 learned


class TestLabelPaths:
    """Integer labels take the flat-snapshot labeling, strings take
    networkx; both must give the same answers."""

    @staticmethod
    def _coalitions(graph):
        hub = max(graph.nodes(), key=lambda node: (graph.degree(node), -node))
        leaf = min(graph.nodes(), key=lambda node: (graph.degree(node), node))
        a, b = sorted(graph.edges())[0]
        pair_cut = (set(graph[a]) | set(graph[b])) - {a, b}
        return [
            [hub],
            sorted(graph[leaf]),
            sorted(pair_cut),
            sorted(graph[hub])[:5],
            [0, 7, 19, 42],
        ]

    def test_integer_and_string_labels_agree(self):
        graph = generate_social_graph(150, rng=np.random.default_rng(23))
        to_str = {node: f"n{node:04d}" for node in graph.nodes()}
        to_int = {label: node for node, label in to_str.items()}
        relabeled = nx.relabel_nodes(graph, to_str)
        assert _remainder_analysis(graph, set()) is not None
        assert _remainder_analysis(relabeled, set()) is None

        def back(nodes):
            return frozenset(to_int[label] for label in nodes)

        cuts = 0
        for coalition in self._coalitions(graph):
            named = [to_str[node] for node in coalition]
            assert is_vertex_cut(graph, coalition) == is_vertex_cut(relabeled, named)
            assert cut_components(graph, coalition) == [
                back(component) for component in cut_components(relabeled, named)
            ]
            flat = coalition_exposure(graph, coalition)
            reference = coalition_exposure(relabeled, named)
            assert flat.coalition == back(reference.coalition)
            assert flat.known_ids == back(reference.known_ids)
            assert flat.forms_vertex_cut == reference.forms_vertex_cut
            assert flat.isolated_pairs == tuple(
                (to_int[a], to_int[b]) for a, b in reference.isolated_pairs
            )
            assert flat.probe_targets == tuple(
                (to_int[a], to_int[b]) for a, b in reference.probe_targets
            )
            cuts += flat.forms_vertex_cut
        assert cuts >= 2
