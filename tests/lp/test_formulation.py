"""Unit tests for the LP_MDS / DLP_MDS formulation.

The formulation evaluates N = A + I on the CSR arrays of a
:class:`~repro.simulator.bulk.BulkGraph`.  Its operators, feasibility
verdicts and duality gaps are checked against an independent dense oracle,
``nx.to_numpy_array(g, nodelist=sorted(g)) + np.eye(n)``, built inline.
"""

from types import MappingProxyType

import networkx as nx
import numpy as np
import pytest

from repro.graphs.generators import graph_suite
from repro.lp.duality import (
    certified_lower_bound,
    lemma1_dual_solution,
    weak_duality_gap,
)
from repro.lp.feasibility import (
    check_dual_feasible,
    check_primal_feasible,
    primal_violations,
)
from repro.lp.formulation import DominatingSetLP, build_lp
from repro.simulator.bulk import BulkGraph

SUITE = sorted(graph_suite("tiny", seed=5).items()) + sorted(
    graph_suite("small", seed=3).items()
)
SUITE_IDS = [name for name, _ in SUITE]


def _dense_n(graph):
    """The dense oracle N = A + I in sorted node order."""
    adjacency = nx.to_numpy_array(graph, nodelist=sorted(graph))
    return adjacency + np.eye(graph.number_of_nodes())


def _both_inputs(graph, **kwargs):
    """The formulation built from the networkx graph and from its CSR."""
    return build_lp(graph, **kwargs), build_lp(BulkGraph.from_graph(graph), **kwargs)


def _weights(graph):
    return {node: 1.0 + (index % 5) for index, node in enumerate(sorted(graph.nodes()))}


class TestBuildLP:
    def test_size_matches_graph(self, path):
        lp = build_lp(path)
        assert lp.size == path.number_of_nodes()

    def test_matrix_is_adjacency_plus_identity(self, path):
        lp = build_lp(path)
        np.testing.assert_array_equal(
            lp.neighborhood_matrix().toarray(), _dense_n(path)
        )

    def test_default_weights_are_ones(self, path):
        lp = build_lp(path)
        assert np.all(lp.weights == 1.0)

    def test_explicit_weights(self, path):
        weights = {node: 2.0 for node in path.nodes()}
        lp = build_lp(path, weights=weights)
        assert np.all(lp.weights == 2.0)

    def test_sequence_weights_rejected(self, path):
        with pytest.raises(TypeError, match="ndarray"):
            build_lp(path, weights=np.ones(path.number_of_nodes()))

    def test_list_of_node_ids_rejected(self, path):
        # The values are node ids, so membership tests used to pass.
        with pytest.raises(TypeError, match="list"):
            build_lp(path, weights=sorted(path.nodes()))

    def test_non_dict_mapping_accepted(self, path):
        weights = MappingProxyType({node: 3.0 for node in path.nodes()})
        assert np.all(build_lp(path, weights=weights).weights == 3.0)

    def test_missing_weights_rejected(self, path):
        with pytest.raises(ValueError, match="missing"):
            build_lp(path, weights={0: 1.0})

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            build_lp(nx.Graph())

    def test_negative_weight_rejected(self, path):
        weights = {node: -1.0 for node in path.nodes()}
        with pytest.raises(ValueError):
            build_lp(path, weights=weights)


class TestVectorConversions:
    def test_vector_from_mapping_defaults_missing_to_zero(self, path):
        lp = build_lp(path)
        vector = lp.vector_from_mapping({0: 1.0})
        assert vector[0] == 1.0
        assert np.all(vector[1:] == 0.0)

    def test_roundtrip_mapping_vector(self, path):
        lp = build_lp(path)
        mapping = {node: float(node) / 10 for node in path.nodes()}
        assert lp.mapping_from_vector(lp.vector_from_mapping(mapping)) == pytest.approx(mapping)

    def test_mapping_from_wrong_length_vector(self, path):
        lp = build_lp(path)
        with pytest.raises(ValueError):
            lp.mapping_from_vector([1.0, 2.0])

    def test_index_of_known_and_unknown_node(self, path):
        lp = build_lp(path)
        assert lp.index_of(0) == 0
        with pytest.raises(KeyError):
            lp.index_of(999)


class TestObjectives:
    def test_objective_all_ones_equals_n(self, path):
        lp = build_lp(path)
        x = {node: 1.0 for node in path.nodes()}
        assert lp.objective(x) == path.number_of_nodes()

    def test_weighted_objective(self, path):
        weights = {node: float(node + 1) for node in path.nodes()}
        lp = build_lp(path, weights=weights)
        x = {node: 1.0 for node in path.nodes()}
        assert lp.objective(x) == sum(weights.values())

    def test_dual_objective_is_plain_sum(self, path):
        lp = build_lp(path)
        y = {node: 0.25 for node in path.nodes()}
        assert lp.dual_objective(y) == pytest.approx(0.25 * path.number_of_nodes())

    def test_coverage_of_indicator(self, star):
        lp = build_lp(star)
        x = {0: 1.0}  # the hub dominates everyone
        coverage = lp.coverage(x)
        assert np.all(coverage >= 1.0)

    def test_objective_accepts_vectors(self, path):
        lp = build_lp(path)
        vector = np.ones(lp.size)
        assert lp.objective(vector) == lp.size

    def test_wrong_length_vector_rejected(self, path):
        lp = build_lp(path)
        with pytest.raises(ValueError):
            lp.objective(np.ones(lp.size + 1))


class TestInputKinds:
    def test_networkx_input_is_converted_once(self, grid):
        lp = build_lp(grid)
        assert isinstance(lp.bulk, BulkGraph)
        assert lp.nodes == lp.bulk.nodes == tuple(sorted(grid.nodes()))

    def test_bulk_input_is_used_as_is(self, grid):
        bulk = BulkGraph.from_graph(grid)
        assert build_lp(bulk).bulk is bulk

    def test_same_canonical_order_and_weights(self, grid):
        from_graph, from_bulk = _both_inputs(grid, weights=_weights(grid))
        assert from_graph.nodes == from_bulk.nodes
        expected = np.array([_weights(grid)[node] for node in sorted(grid)])
        np.testing.assert_array_equal(from_graph.weights, expected)
        np.testing.assert_array_equal(from_bulk.weights, expected)

    def test_missing_weights_rejected(self, grid):
        bulk = BulkGraph.from_graph(grid)
        with pytest.raises(ValueError, match="weights missing"):
            build_lp(bulk, weights={next(iter(grid.nodes())): 1.0})

    def test_negative_weights_rejected(self, grid):
        bulk = BulkGraph.from_graph(grid)
        with pytest.raises(ValueError, match="non-negative"):
            build_lp(bulk, weights={node: -1.0 for node in grid.nodes()})

    def test_lp_dataclass_validation(self):
        bulk = BulkGraph.from_graph(nx.path_graph(2))
        with pytest.raises(ValueError):
            DominatingSetLP(bulk=bulk, nodes=(0, 1, 2), weights=np.ones(2))
        with pytest.raises(ValueError):
            DominatingSetLP(bulk=bulk, nodes=(0, 1), weights=np.ones(3))


class TestOperatorsAgainstDenseOracle:
    @pytest.mark.parametrize("name,graph", SUITE, ids=SUITE_IDS)
    def test_coverage_matches_dense(self, name, graph):
        matrix = _dense_n(graph)
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 1.0, size=graph.number_of_nodes())
        for lp in _both_inputs(graph):
            np.testing.assert_allclose(lp.coverage(x), matrix @ x, atol=1e-12)
            np.testing.assert_allclose(lp.dual_load(x), matrix @ x, atol=1e-12)
            np.testing.assert_array_equal(lp.neighborhood_matrix().toarray(), matrix)
            assert lp.objective(x) == pytest.approx(float(np.sum(x)))
            assert lp.dual_objective(x) == pytest.approx(float(np.sum(x)))

    def test_mapping_round_trip(self, grid):
        lp = build_lp(BulkGraph.from_graph(grid))
        values = {node: 0.25 for node in grid.nodes()}
        vector = lp.vector_from_mapping(values)
        assert lp.mapping_from_vector(vector) == values

    def test_index_of(self, grid):
        lp = build_lp(BulkGraph.from_graph(grid))
        for index, node in enumerate(lp.nodes):
            assert lp.index_of(node) == index
        with pytest.raises(KeyError):
            lp.index_of("not-a-node")


def _dense_primal_violation(matrix, x):
    return max(
        float(np.max(np.maximum(-x, 0.0), initial=0.0)),
        float(np.max(np.maximum(1.0 - matrix @ x, 0.0), initial=0.0)),
    )


def _dense_dual_violation(matrix, y):
    return max(
        float(np.max(np.maximum(-y, 0.0), initial=0.0)),
        float(np.max(np.maximum(matrix @ y - 1.0, 0.0), initial=0.0)),
    )


class TestFeasibilityAgainstDenseOracle:
    @pytest.mark.parametrize("name,graph", SUITE, ids=SUITE_IDS)
    def test_same_verdicts_as_dense(self, name, graph):
        matrix = _dense_n(graph)
        nodes = sorted(graph)
        lemma1 = lemma1_dual_solution(graph)
        points = (
            {node: 1.0 for node in nodes},
            {node: 0.0 for node in nodes},
            lemma1,
        )
        for lp in _both_inputs(graph):
            for point in points:
                vector = np.array([point[node] for node in nodes])
                assert check_primal_feasible(lp, point) == (
                    _dense_primal_violation(matrix, vector) <= 1e-9
                )
                assert check_dual_feasible(lp, point) == (
                    _dense_dual_violation(matrix, vector) <= 1e-9
                )

    def test_violations_match_dense(self, path):
        x = {0: 1.0}  # leaves most of the path uncovered
        nodes = sorted(path)
        shortfall = 1.0 - _dense_n(path) @ np.array([x.get(node, 0.0) for node in nodes])
        expected = {
            node: float(value) for node, value in zip(nodes, shortfall) if value > 1e-9
        }
        for lp in _both_inputs(path):
            assert primal_violations(lp, x) == expected

    def test_max_violation_values_agree(self, grid):
        x = {node: 0.1 for node in grid.nodes()}
        expected = _dense_primal_violation(
            _dense_n(grid), np.full(grid.number_of_nodes(), 0.1)
        )
        for lp in _both_inputs(grid):
            _, violation = check_primal_feasible(lp, x, return_violation=True)
            assert violation == pytest.approx(expected)


class TestDualityAgainstDenseOracle:
    @pytest.mark.parametrize("name,graph", SUITE, ids=SUITE_IDS)
    def test_gap_matches_dense(self, name, graph):
        nodes = sorted(graph)
        x = {node: 1.0 for node in nodes}
        y = lemma1_dual_solution(graph)
        y_vector = np.array([y[node] for node in nodes])
        assert _dense_dual_violation(_dense_n(graph), y_vector) <= 1e-9
        expected = len(nodes) - float(np.sum(y_vector))
        for lp in _both_inputs(graph):
            assert weak_duality_gap(lp, x, y) == pytest.approx(expected)

    def test_infeasible_dual_rejected(self, grid):
        lp = build_lp(BulkGraph.from_graph(grid))
        bad = {node: 10.0 for node in grid.nodes()}
        with pytest.raises(ValueError, match="not a feasible dual"):
            weak_duality_gap(lp, {node: 1.0 for node in grid.nodes()}, bad)

    def test_certified_lower_bound_on_bulk(self, grid):
        bulk = BulkGraph.from_graph(grid)
        y = lemma1_dual_solution(bulk)
        y_vector = np.array([y[node] for node in sorted(grid)])
        # Feasible for the dense oracle, so the bound is Σ y exactly.
        assert _dense_dual_violation(_dense_n(grid), y_vector) <= 1e-9
        assert certified_lower_bound(bulk, y) == pytest.approx(float(np.sum(y_vector)))
        assert certified_lower_bound(grid, y) == pytest.approx(float(np.sum(y_vector)))
