"""Backend equivalence for the vectorized baseline stack.

Like the core ports in ``tests/core/test_backend_equivalence``, the bulk
baselines are engineered to be *output-identical* to their reference
implementations: LRG selects the same dominating set from the same coin
streams (and models the same rounds/messages), Wu–Li marks and prunes the
same nodes, and the CSR set cover picks the same sets in the same order.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.baselines.greedy import greedy_dominating_set
from repro.baselines.greedy_set_cover import (
    greedy_set_cover,
    greedy_set_cover_dominating_set,
)
from repro.baselines.bulk_set_cover import (
    greedy_set_cover_bulk,
    greedy_set_cover_dominating_set_bulk,
)
from repro.baselines.jia_rajaraman_suel import lrg_dominating_set
from repro.baselines.lp_rounding_central import central_lp_rounding_dominating_set
from repro.baselines.wu_li import wu_li_dominating_set
from repro.graphs.bulk import bulk_unit_disk_graph
from repro.graphs.generators import graph_suite

TINY = sorted(graph_suite("tiny", seed=5).items())
SMALL = sorted(graph_suite("small", seed=3).items())


def assert_metrics_equal(simulated, vectorized):
    assert simulated.round_count == vectorized.round_count
    assert simulated.total_messages == vectorized.total_messages
    assert simulated.total_bits == vectorized.total_bits
    assert simulated.max_message_bits == vectorized.max_message_bits
    assert dict(simulated.messages_per_node) == dict(vectorized.messages_per_node)
    assert dict(simulated.bits_per_node) == dict(vectorized.bits_per_node)


class TestLRGEquivalence:
    @pytest.mark.parametrize("name,graph", TINY, ids=[name for name, _ in TINY])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_tiny_suite(self, name, graph, seed):
        simulated = lrg_dominating_set(graph, seed=seed)
        vectorized = lrg_dominating_set(graph, seed=seed, backend="vectorized")
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.phases == vectorized.phases
        assert simulated.rounds == vectorized.rounds
        assert_metrics_equal(simulated.metrics, vectorized.metrics)

    def test_small_instances(self):
        for name in ("erdos_renyi_n100", "clique_chain_6x8", "two_level_star_8x6"):
            graph = dict(SMALL)[name]
            simulated = lrg_dominating_set(graph, seed=11)
            vectorized = lrg_dominating_set(graph, seed=11, backend="vectorized")
            assert simulated.dominating_set == vectorized.dominating_set, name
            assert_metrics_equal(simulated.metrics, vectorized.metrics)

    def test_shared_seed_determinism_across_variants(self, unit_disk):
        """The satellite determinism contract: both variants draw from the
        same per-node streams, so one seed pins one dominating set across
        backends *and* across repeated runs of either backend."""
        runs = [
            lrg_dominating_set(unit_disk, seed=42).dominating_set,
            lrg_dominating_set(unit_disk, seed=42).dominating_set,
            lrg_dominating_set(unit_disk, seed=42, backend="vectorized").dominating_set,
            lrg_dominating_set(unit_disk, seed=42, backend="vectorized").dominating_set,
        ]
        assert len(set(runs)) == 1
        # ... and a different seed genuinely reshuffles the coins.
        other = lrg_dominating_set(unit_disk, seed=43, backend="vectorized")
        assert isinstance(other.dominating_set, frozenset)

    def test_phase_cap_equivalence(self, grid):
        simulated = lrg_dominating_set(grid, seed=0, max_phases=1)
        vectorized = lrg_dominating_set(
            grid, seed=0, max_phases=1, backend="vectorized"
        )
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.phases == vectorized.phases == 1

    def test_edge_cases(self):
        single = nx.Graph()
        single.add_node(0)
        edgeless = nx.empty_graph(4)
        for graph in (single, edgeless):
            simulated = lrg_dominating_set(graph, seed=0)
            vectorized = lrg_dominating_set(graph, seed=0, backend="vectorized")
            assert simulated.dominating_set == vectorized.dominating_set
            assert simulated.rounds == vectorized.rounds

    def test_bulk_graph_input(self):
        bulk = bulk_unit_disk_graph(150, radius=0.12, seed=2)
        direct = lrg_dominating_set(bulk, seed=9, backend="vectorized")
        reference = lrg_dominating_set(
            bulk.to_networkx(), seed=9, backend="vectorized"
        )
        assert direct.dominating_set == reference.dominating_set

    def test_bulk_requires_vectorized_backend(self):
        bulk = bulk_unit_disk_graph(30, radius=0.2, seed=0)
        with pytest.raises(ValueError, match="vectorized"):
            lrg_dominating_set(bulk, seed=0)


class TestWuLiEquivalence:
    @pytest.mark.parametrize("name,graph", TINY, ids=[name for name, _ in TINY])
    @pytest.mark.parametrize("apply_pruning", [True, False])
    def test_tiny_suite(self, name, graph, apply_pruning):
        simulated = wu_li_dominating_set(graph, apply_pruning=apply_pruning)
        vectorized = wu_li_dominating_set(
            graph, apply_pruning=apply_pruning, backend="vectorized"
        )
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.marked == vectorized.marked
        assert simulated.rounds == vectorized.rounds
        assert_metrics_equal(simulated.metrics, vectorized.metrics)

    @pytest.mark.parametrize("name,graph", SMALL, ids=[name for name, _ in SMALL])
    def test_small_suite(self, name, graph):
        simulated = wu_li_dominating_set(graph)
        vectorized = wu_li_dominating_set(graph, backend="vectorized")
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.marked == vectorized.marked

    def test_complete_graph_has_no_marks(self):
        graph = nx.complete_graph(6)
        vectorized = wu_li_dominating_set(graph, backend="vectorized")
        assert vectorized.marked == frozenset()
        # ensure_domination adds every (undominated) node back.
        assert vectorized.dominating_set == frozenset(graph.nodes())

    def test_without_domination_completion(self):
        graph = nx.complete_graph(4)
        simulated = wu_li_dominating_set(graph, ensure_domination=False)
        vectorized = wu_li_dominating_set(
            graph, ensure_domination=False, backend="vectorized"
        )
        assert simulated.dominating_set == vectorized.dominating_set == frozenset()

    def test_bulk_graph_input(self):
        bulk = bulk_unit_disk_graph(200, radius=0.1, seed=6)
        direct = wu_li_dominating_set(bulk, backend="vectorized")
        reference = wu_li_dominating_set(bulk.to_networkx(), backend="vectorized")
        assert direct.dominating_set == reference.dominating_set
        assert direct.marked == reference.marked


class TestSetCoverEquivalence:
    def test_generic_api_pick_order(self):
        universe = range(12)
        sets = {
            "a": frozenset({0, 1, 2, 3}),
            "b": frozenset({3, 4, 5}),
            "c": frozenset({5, 6, 7, 8}),
            "d": frozenset({8, 9, 10, 11}),
            "e": frozenset({0, 4, 9, 11, 99}),  # 99 is outside the universe
        }
        assert greedy_set_cover_bulk(universe, sets) == greedy_set_cover(
            universe, sets
        )

    def test_empty_universe(self):
        assert greedy_set_cover_bulk([], {"a": frozenset({1})}) == []

    def test_uncoverable_universe_rejected(self):
        with pytest.raises(ValueError, match="cannot be covered"):
            greedy_set_cover_bulk(range(3), {"a": frozenset({0})})

    @pytest.mark.parametrize("name,graph", TINY, ids=[name for name, _ in TINY])
    def test_dominating_set_matches_reference(self, name, graph):
        assert greedy_set_cover_dominating_set_bulk(
            graph
        ) == greedy_set_cover_dominating_set(graph)

    def test_matches_classical_greedy_at_scale(self):
        bulk = bulk_unit_disk_graph(400, radius=0.08, seed=4)
        assert greedy_set_cover_dominating_set_bulk(bulk) == greedy_dominating_set(
            bulk.to_networkx()
        )


class TestCentralLPBackends:
    def test_same_set_on_both_backends(self, unit_disk):
        simulated = central_lp_rounding_dominating_set(unit_disk, seed=3)
        vectorized = central_lp_rounding_dominating_set(
            unit_disk, seed=3, backend="vectorized"
        )
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.lp_optimum == vectorized.lp_optimum

    def test_bulk_input_solves_sparsely(self):
        bulk = bulk_unit_disk_graph(250, radius=0.1, seed=7)
        result = central_lp_rounding_dominating_set(
            bulk, seed=1, backend="vectorized"
        )
        reference = central_lp_rounding_dominating_set(
            bulk.to_networkx(), seed=1, backend="vectorized"
        )
        assert result.dominating_set == reference.dominating_set
        # The matrix-free formulation is attached, on the input's own CSR.
        assert result.lp_solution.lp.bulk is bulk
        assert result.lp_optimum == pytest.approx(reference.lp_optimum, abs=1e-6)
