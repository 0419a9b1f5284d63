"""Unit tests for canonical content hashing of solve requests."""

import networkx as nx
import numpy as np
import pytest

from repro.core.kuhn_wattenhofer import FractionalVariant, RoundingRule
from repro.service.keys import (
    cache_key,
    canonical_token,
    coalesce_key,
    graph_fingerprint,
    params_token,
)
from repro.simulator.bulk import BulkGraph, range_labels
from repro.simulator.fault_schedule import FaultSpec


def _sample_graph(seed: int = 0, n: int = 24) -> nx.Graph:
    return nx.gnp_random_graph(n, 0.2, seed=seed)


class TestGraphFingerprint:
    def test_equal_graphs_equal_fingerprints(self):
        assert graph_fingerprint(_sample_graph(3)) == graph_fingerprint(
            _sample_graph(3)
        )

    def test_different_graphs_differ(self):
        assert graph_fingerprint(_sample_graph(3)) != graph_fingerprint(
            _sample_graph(4)
        )

    def test_constructor_independence(self):
        """nx, from_graph and from_edges spellings of one graph coincide."""
        graph = _sample_graph(7)
        bulk = BulkGraph.from_graph(graph)
        edges = np.array(sorted(graph.edges()), dtype=np.int64)
        from_edges = BulkGraph.from_edges(
            graph.number_of_nodes(), edges[:, 0], edges[:, 1]
        )
        # The unlabelled graph's labels are interned; from_graph's labels
        # 0..n-1 are an equal tuple of its own.
        assert from_edges.nodes is range_labels(from_edges.n)
        assert bulk.nodes == from_edges.nodes and bulk.nodes is not from_edges.nodes
        assert (
            graph_fingerprint(graph)
            == graph_fingerprint(bulk)
            == graph_fingerprint(from_edges)
        )

    def test_edge_order_independence(self):
        graph = _sample_graph(9)
        edges = np.array(sorted(graph.edges()), dtype=np.int64)
        shuffled = np.random.default_rng(0).permutation(len(edges))
        forward = BulkGraph.from_edges(
            graph.number_of_nodes(), edges[:, 0], edges[:, 1]
        )
        scrambled = BulkGraph.from_edges(
            graph.number_of_nodes(),
            edges[shuffled, 1],  # also flip endpoint order
            edges[shuffled, 0],
        )
        assert graph_fingerprint(forward) == graph_fingerprint(scrambled)

    def test_node_labels_participate(self):
        plain = nx.Graph([(0, 1), (1, 2)])
        relabelled = nx.Graph([("a", "b"), ("b", "c")])
        assert graph_fingerprint(plain) != graph_fingerprint(relabelled)


class TestCanonicalToken:
    def test_enum_and_string_coincide(self):
        assert canonical_token(FractionalVariant.KNOWN_DELTA) != canonical_token(
            "known_delta"
        )  # raw enum vs raw string differ; normalization happens in params

    def test_integer_float_collapses(self):
        assert canonical_token(2.0) == canonical_token(2)

    def test_mapping_key_order_independent(self):
        assert canonical_token({"a": 1, "b": 2}) == canonical_token({"b": 2, "a": 1})

    def test_fault_spec_tokens(self):
        one = FaultSpec(loss_probability=0.1, seed=1)
        same = FaultSpec(loss_probability=0.1, seed=1)
        other = FaultSpec(loss_probability=0.1, seed=2)
        assert canonical_token(one) == canonical_token(same)
        assert canonical_token(one) != canonical_token(other)


class TestParamsToken:
    def test_defaults_vs_explicit(self):
        implicit = params_token("kuhn-wattenhofer", {"k": 2})
        explicit = params_token(
            "kuhn-wattenhofer",
            {
                "k": 2,
                "variant": FractionalVariant.UNKNOWN_DELTA,
                "rounding_rule": RoundingRule.LOG,
            },
        )
        assert implicit == explicit

    def test_enum_spelling_vs_string(self):
        assert params_token(
            "kuhn-wattenhofer", {"k": 2, "variant": "known_delta"}
        ) == params_token(
            "kuhn-wattenhofer", {"k": 2, "variant": FractionalVariant.KNOWN_DELTA}
        )

    def test_different_k_differ(self):
        assert params_token("kuhn-wattenhofer", {"k": 2}) != params_token(
            "kuhn-wattenhofer", {"k": 3}
        )

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError):
            params_token("kuhn-wattenhofer", {"k": 2, "bogus": 1})


class TestCacheKey:
    def test_stable_across_graph_constructors(self):
        graph = _sample_graph(11)
        bulk = BulkGraph.from_graph(graph)
        assert cache_key("kuhn-wattenhofer", graph, seed=5, params={"k": 2}) == (
            cache_key("kuhn-wattenhofer", bulk, seed=5, params={"k": 2})
        )

    def test_no_false_sharing_between_seeds(self):
        graph = _sample_graph(11)
        assert cache_key("kuhn-wattenhofer", graph, seed=1, params={"k": 2}) != (
            cache_key("kuhn-wattenhofer", graph, seed=2, params={"k": 2})
        )

    def test_no_false_sharing_between_params(self):
        graph = _sample_graph(11)
        base = cache_key("kuhn-wattenhofer", graph, seed=1, params={"k": 2})
        assert base != cache_key("kuhn-wattenhofer", graph, seed=1, params={"k": 3})
        assert base != cache_key(
            "kuhn-wattenhofer",
            graph,
            seed=1,
            params={"k": 2, "faults": FaultSpec(loss_probability=0.1, seed=0)},
        )

    def test_no_false_sharing_between_algorithms(self):
        graph = _sample_graph(11)
        assert cache_key("kuhn-wattenhofer", graph, seed=1, params={"k": 2}) != (
            cache_key("greedy", graph, seed=1)
        )

    def test_default_params_share_with_explicit(self):
        graph = _sample_graph(11)
        assert cache_key(
            "kuhn-wattenhofer", graph, seed=1, params={"k": 2}
        ) == cache_key(
            "kuhn-wattenhofer",
            graph,
            seed=1,
            params={"k": 2, "variant": "unknown_delta", "repair": True},
        )

    def test_precomputed_graph_hash_shortcut(self):
        graph = _sample_graph(13)
        fingerprint = graph_fingerprint(graph)
        assert cache_key(
            "kuhn-wattenhofer", graph, seed=0, params={"k": 1}
        ) == cache_key(
            "kuhn-wattenhofer",
            graph,
            seed=0,
            params={"k": 1},
            graph_hash=fingerprint,
        )


class TestCoalesceKey:
    def test_same_group_differs_only_in_k(self):
        graph = _sample_graph(17)
        keys = {
            coalesce_key("kuhn-wattenhofer", graph, seed=4, params={"k": k})
            for k in (1, 2, 3)
        }
        assert len(keys) == 1 and None not in keys

    def test_cache_keys_still_differ_within_group(self):
        graph = _sample_graph(17)
        keys = {
            cache_key("kuhn-wattenhofer", graph, seed=4, params={"k": k})
            for k in (1, 2, 3)
        }
        assert len(keys) == 3

    def test_seed_splits_groups(self):
        graph = _sample_graph(17)
        assert coalesce_key(
            "kuhn-wattenhofer", graph, seed=1, params={"k": 1}
        ) != coalesce_key("kuhn-wattenhofer", graph, seed=2, params={"k": 1})

    def test_graph_splits_groups(self):
        assert coalesce_key(
            "kuhn-wattenhofer", _sample_graph(1), seed=1, params={"k": 1}
        ) != coalesce_key(
            "kuhn-wattenhofer", _sample_graph(2), seed=1, params={"k": 1}
        )

    def test_non_multi_k_algorithm_not_coalescible(self):
        assert coalesce_key("greedy", _sample_graph(17)) is None

    def test_default_k_not_coalescible(self):
        assert (
            coalesce_key("kuhn-wattenhofer", _sample_graph(17), params={}) is None
        )

    def test_traces_and_faults_not_coalescible(self):
        graph = _sample_graph(17)
        assert (
            coalesce_key(
                "kuhn-wattenhofer", graph, params={"k": 2, "collect_trace": True}
            )
            is None
        )
        assert (
            coalesce_key(
                "kuhn-wattenhofer",
                graph,
                params={"k": 2, "faults": FaultSpec(loss_probability=0.1)},
            )
            is None
        )

    def test_backend_splits_groups(self):
        graph = _sample_graph(17)
        assert coalesce_key(
            "kuhn-wattenhofer", graph, params={"k": 2}, backend="simulated"
        ) != coalesce_key(
            "kuhn-wattenhofer", graph, params={"k": 2}, backend="vectorized"
        )
