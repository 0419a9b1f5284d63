"""Unit tests for the paper's graph notation helpers."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.utils import (
    closed_neighborhood,
    closed_neighborhoods,
    coverage,
    degree_map,
    delta_one,
    delta_two,
    max_degree,
    node_index,
    relabel_to_integers,
    validate_simple_graph,
)
from repro.lp.formulation import build_lp


class TestDegreeHelpers:
    def test_degree_map(self, star):
        degrees = degree_map(star)
        assert degrees[0] == 10
        assert degrees[1] == 1

    def test_max_degree_star(self, star):
        assert max_degree(star) == 10

    def test_max_degree_edgeless(self):
        graph = nx.empty_graph(3)
        assert max_degree(graph) == 0

    def test_max_degree_empty_graph_raises(self):
        with pytest.raises(ValueError):
            max_degree(nx.Graph())


class TestClosedNeighborhood:
    def test_includes_self(self, path):
        assert 0 in closed_neighborhood(path, 0)

    def test_path_interior(self, path):
        assert closed_neighborhood(path, 1) == frozenset({0, 1, 2})

    def test_isolated_node(self):
        graph = nx.empty_graph(2)
        assert closed_neighborhood(graph, 0) == frozenset({0})

    def test_closed_neighborhoods_all_nodes(self, path):
        neighborhoods = closed_neighborhoods(path)
        assert set(neighborhoods) == set(path.nodes())


class TestDeltaOneTwo:
    def test_delta_one_on_star(self, star):
        first = delta_one(star)
        # Every leaf sees the hub's degree 10; the hub sees its own.
        assert all(value == 10 for value in first.values())

    def test_delta_two_on_path(self):
        # Path 0-1-2-3-4: degrees 1,2,2,2,1.
        graph = nx.path_graph(5)
        two = delta_two(graph)
        assert two[0] == 2
        assert two[2] == 2

    def test_delta_two_geq_delta_one(self, small_random_graph):
        first = delta_one(small_random_graph)
        second = delta_two(small_random_graph)
        assert all(second[node] >= first[node] for node in small_random_graph.nodes())

    def test_delta_one_geq_own_degree(self, small_random_graph):
        degrees = degree_map(small_random_graph)
        first = delta_one(small_random_graph)
        assert all(first[node] >= degrees[node] for node in small_random_graph.nodes())


class TestNeighborhoodMatrix:
    """N = A + I, as built on the CSR by the LP formulation."""

    @staticmethod
    def _matrix(graph):
        return build_lp(graph).neighborhood_matrix().toarray()

    def test_diagonal_is_one(self, path):
        matrix = self._matrix(path)
        assert np.all(np.diag(matrix) == 1)

    def test_symmetric(self, small_random_graph):
        matrix = self._matrix(small_random_graph)
        assert np.allclose(matrix, matrix.T)

    def test_row_sums_are_closed_degree(self, path):
        matrix = self._matrix(path)
        degrees = degree_map(path)
        nodes = sorted(path.nodes())
        for index, node in enumerate(nodes):
            assert matrix[index].sum() == degrees[node] + 1

    def test_node_index_matches_sorted_order(self):
        graph = nx.Graph()
        graph.add_nodes_from([5, 2, 9])
        assert node_index(graph) == {2: 0, 5: 1, 9: 2}


class TestCoverage:
    def test_coverage_sums_closed_neighborhood(self, path):
        values = {node: 1.0 for node in path.nodes()}
        cov = coverage(path, values)
        assert cov[0] == 2.0  # endpoint
        assert cov[1] == 3.0  # interior

    def test_coverage_missing_values_default_zero(self, path):
        cov = coverage(path, {0: 1.0})
        assert cov[0] == 1.0
        assert cov[1] == 1.0
        assert cov[3] == 0.0


class TestValidation:
    def test_accepts_simple_graph(self, path):
        validate_simple_graph(path)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_simple_graph(nx.Graph())

    def test_rejects_self_loop(self):
        graph = nx.Graph([(0, 0)])
        with pytest.raises(ValueError):
            validate_simple_graph(graph)

    def test_rejects_directed(self):
        with pytest.raises(ValueError):
            validate_simple_graph(nx.DiGraph([(0, 1)]))

    @pytest.mark.parametrize(
        "graph,message",
        [
            (nx.Graph(), "graph has no nodes"),
            (nx.DiGraph([(0, 1), (1, 1)]), "graph must be undirected"),
            (nx.Graph([(0, 1), (2, 2)]), "graph must not contain self loops"),
            (nx.MultiGraph([(0, 1), (1, 1)]), "graph must not contain self loops"),
        ],
    )
    def test_messages(self, graph, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate_simple_graph(graph)

    def test_accepts_parallel_edges_and_isolated_nodes(self):
        graph = nx.MultiGraph([(0, 1), (0, 1)])
        graph.add_node(2)
        validate_simple_graph(graph)

    def test_relabel_to_integers_preserves_structure(self):
        graph = nx.Graph([("a", "b"), ("b", "c")])
        relabeled = relabel_to_integers(graph)
        assert sorted(relabeled.nodes()) == [0, 1, 2]
        assert relabeled.number_of_edges() == 2
