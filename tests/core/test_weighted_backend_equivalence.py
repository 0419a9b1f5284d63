"""Backend equivalence for the weighted variant of Algorithm 2.

Like the unweighted ports in ``test_backend_equivalence``, the weighted
vectorized backend is engineered to be *bitwise* identical to the
message-passing engine: same x-vectors, same weighted objective, same
round counts and modeled metrics, and -- through the shared coin streams --
the same dominating set from the weighted end-to-end pipeline.
"""

from __future__ import annotations

import pytest

from repro.core.weighted import (
    approximate_weighted_fractional_mds,
    weighted_kuhn_wattenhofer_dominating_set,
)
from repro.graphs.bulk import bulk_unit_disk_graph
from repro.graphs.generators import graph_suite

TINY = sorted(graph_suite("tiny", seed=5).items())


def spread_weights(graph_nodes, c_max):
    nodes = sorted(graph_nodes)
    n = max(len(nodes) - 1, 1)
    return {
        node: 1.0 + (c_max - 1.0) * (index / n) for index, node in enumerate(nodes)
    }


def assert_weighted_equivalent(simulated, vectorized):
    assert simulated.x == vectorized.x  # bitwise, not approx
    assert simulated.objective == vectorized.objective
    assert simulated.unweighted_objective == vectorized.unweighted_objective
    assert simulated.rounds == vectorized.rounds
    assert simulated.k == vectorized.k
    assert simulated.max_degree == vectorized.max_degree
    assert simulated.c_max == vectorized.c_max

    sim_metrics, vec_metrics = simulated.metrics, vectorized.metrics
    assert sim_metrics.round_count == vec_metrics.round_count
    assert sim_metrics.total_messages == vec_metrics.total_messages
    assert sim_metrics.total_bits == vec_metrics.total_bits
    assert sim_metrics.max_message_bits == vec_metrics.max_message_bits
    assert dict(sim_metrics.messages_per_node) == dict(vec_metrics.messages_per_node)
    assert dict(sim_metrics.bits_per_node) == dict(vec_metrics.bits_per_node)


class TestWeightedFractionalEquivalence:
    @pytest.mark.parametrize("name,graph", TINY, ids=[name for name, _ in TINY])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("c_max", [1.0, 4.0])
    def test_tiny_suite(self, name, graph, k, c_max):
        weights = spread_weights(graph.nodes(), c_max)
        simulated = approximate_weighted_fractional_mds(graph, weights, k=k)
        vectorized = approximate_weighted_fractional_mds(
            graph, weights, k=k, backend="vectorized"
        )
        assert_weighted_equivalent(simulated, vectorized)

    def test_small_instances(self):
        suite = graph_suite("small", seed=3)
        for name in ("erdos_renyi_n60", "clique_chain_6x8"):
            graph = suite[name]
            weights = spread_weights(graph.nodes(), 16.0)
            simulated = approximate_weighted_fractional_mds(graph, weights, k=2)
            vectorized = approximate_weighted_fractional_mds(
                graph, weights, k=2, backend="vectorized"
            )
            assert_weighted_equivalent(simulated, vectorized)

    @pytest.mark.parametrize("backend", ["vectorized", "sharded"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_unit_costs_are_bitwise_unweighted(self, unit_disk, backend, k):
        """All costs 1 (c_max = 1): the weighted rule is Algorithm 2's."""
        from repro.core.fractional import approximate_fractional_mds

        weights = {node: 1.0 for node in unit_disk.nodes()}
        weighted = approximate_weighted_fractional_mds(
            unit_disk, weights, k=k, backend=backend
        )
        unweighted = approximate_fractional_mds(unit_disk, k=k, backend=backend)
        assert weighted.c_max == 1.0
        assert weighted.x == unweighted.x
        assert weighted.unweighted_objective == unweighted.objective
        assert weighted.rounds == unweighted.rounds
        assert weighted.metrics == unweighted.metrics

    def test_uniform_weights_match_unweighted(self):
        from repro.core.fractional import approximate_fractional_mds

        graph = dict(TINY)["grid_4x5"]
        weights = {node: 1.0 for node in graph.nodes()}
        weighted = approximate_weighted_fractional_mds(
            graph, weights, k=3, backend="vectorized"
        )
        unweighted = approximate_fractional_mds(graph, k=3, backend="vectorized")
        assert weighted.x == unweighted.x


class TestWeightedPipelineEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 2003])
    def test_same_dominating_set(self, unit_disk, seed):
        weights = spread_weights(unit_disk.nodes(), 4.0)
        simulated = weighted_kuhn_wattenhofer_dominating_set(
            unit_disk, weights, k=2, seed=seed
        )
        vectorized = weighted_kuhn_wattenhofer_dominating_set(
            unit_disk, weights, k=2, seed=seed, backend="vectorized"
        )
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.cost == vectorized.cost
        assert simulated.total_rounds == vectorized.total_rounds


class TestWeightedBulkInputs:
    def test_bulk_graph_input(self):
        bulk = bulk_unit_disk_graph(120, radius=0.15, seed=2)
        weights = spread_weights(bulk.nodes, 3.0)
        reference = approximate_weighted_fractional_mds(
            bulk.to_networkx(), weights, k=2, backend="vectorized"
        )
        direct = approximate_weighted_fractional_mds(
            bulk, weights, k=2, backend="vectorized"
        )
        assert direct.x == reference.x
        assert direct.objective == reference.objective

        pipeline = weighted_kuhn_wattenhofer_dominating_set(
            bulk, weights, k=2, seed=4, backend="vectorized"
        )
        reference_pipeline = weighted_kuhn_wattenhofer_dominating_set(
            bulk.to_networkx(), weights, k=2, seed=4, backend="vectorized"
        )
        assert pipeline.dominating_set == reference_pipeline.dominating_set

    def test_bulk_requires_vectorized_backend(self):
        bulk = bulk_unit_disk_graph(30, radius=0.2, seed=0)
        weights = {node: 1.0 for node in bulk.nodes}
        with pytest.raises(ValueError, match="vectorized"):
            approximate_weighted_fractional_mds(bulk, weights, k=1)
        with pytest.raises(ValueError, match="vectorized"):
            weighted_kuhn_wattenhofer_dominating_set(bulk, weights, k=1)
