"""The counter-keyed coin streams every backend flips.

``u(key, node_index, draw_counter)`` is the only source of node randomness
in Algorithm 1 and the LRG baseline: the per-node programs read it through
``NodeContext.rng``, the vectorized and sharded kernels over whole index
arrays.  These tests check the generator itself (range, uniformity, no
correlation between neighbouring inputs), the seed -> key contract, and
that every backend flips the same coins.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from repro.api import solve
from repro.baselines import bulk_lrg
from repro.baselines.jia_rajaraman_suel import lrg_dominating_set
from repro.core.rounding import round_fractional_solution
from repro.core.vectorized import BACKENDS
from repro.simulator.coins import CoinStream, coin_key, u
from repro.simulator.network import Network
from repro.simulator.node import NodeContext

DRAWS = 200_000
KEY = coin_key(2024)


def _null_factory(node_id, network):
    return None


def _correlation_bound(samples: int) -> float:
    # Five standard errors of a Pearson coefficient under independence.
    return 5.0 / np.sqrt(samples)


class TestGenerator:
    def test_draws_lie_in_unit_interval(self):
        draws = u(KEY, np.arange(DRAWS), 3)
        assert draws.dtype == np.float64
        assert draws.min() >= 0.0
        assert draws.max() < 1.0

    def test_largest_draw_is_below_one(self):
        # The top 53 bits all set is the largest value u can return.
        largest = np.float64(2**53 - 1) * 2.0**-53
        assert largest < 1.0

    def test_extreme_inputs_stay_in_range(self):
        indices = np.array([0, 1, 2**31, 2**40, 2**62], dtype=np.int64)
        for key in (0, 1, 2**63, 2**64 - 1):
            draws = u(key, indices, indices)
            assert np.all((draws >= 0.0) & (draws < 1.0))

    def test_scalar_and_array_forms_agree(self):
        draws = u(KEY, np.arange(10), 4)
        assert [float(u(KEY, i, 4)[0]) for i in range(10)] == draws.tolist()

    @pytest.mark.parametrize(
        "draws",
        [
            u(KEY, np.arange(DRAWS), 0),
            u(KEY, 17, np.arange(DRAWS)),
            np.array([u(coin_key(seed), 5, 0)[0] for seed in range(20_000)]),
        ],
        ids=["over-nodes", "over-counters", "over-seeds"],
    )
    def test_uniformity(self, draws):
        assert stats.kstest(draws, "uniform").pvalue > 1e-3
        counts, _ = np.histogram(draws, bins=64, range=(0.0, 1.0))
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_adjacent_node_indices_uncorrelated(self):
        draws = u(KEY, np.arange(DRAWS + 1), 0)
        r = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(r) < _correlation_bound(DRAWS)

    def test_adjacent_counters_uncorrelated(self):
        indices = np.arange(DRAWS)
        r = np.corrcoef(u(KEY, indices, 0), u(KEY, indices, 1))[0, 1]
        assert abs(r) < _correlation_bound(DRAWS)

    def test_adjacent_seeds_uncorrelated(self):
        indices = np.arange(DRAWS)
        r = np.corrcoef(
            u(coin_key(41), indices, 0), u(coin_key(42), indices, 0)
        )[0, 1]
        assert abs(r) < _correlation_bound(DRAWS)

    def test_node_index_and_counter_are_not_interchangeable(self):
        grid = np.arange(64)
        assert not np.array_equal(u(KEY, grid, 1), u(KEY, 1, grid))
        assert np.unique(u(KEY, grid[:, None], grid[None, :])).size == grid.size**2


class TestSeedToKey:
    def test_seed_spellings_agree(self):
        assert coin_key(7) == coin_key("7")
        assert coin_key(7) != coin_key(8)

    def test_unseeded_keys_are_fresh(self):
        assert len({coin_key(None) for _ in range(8)}) == 8

    def test_key_is_64_bit(self):
        for seed in (0, -1, 10**30, "experiment-a", None):
            assert 0 <= coin_key(seed) < 2**64


class TestNodeStreams:
    def test_node_stream_walks_the_counter(self):
        graph = nx.path_graph(6)
        network = Network(graph, _null_factory, seed=99)
        key = coin_key(99)
        for position, node in enumerate(network.node_ids):
            rng = network.context(node).rng
            drawn = [rng.random() for _ in range(5)]
            assert drawn == u(key, position, np.arange(5)).tolist()

    def test_streams_key_on_sorted_position(self):
        labels = {0: "delta", 1: "alpha", 2: "charlie", 3: "bravo"}
        network = Network(nx.relabel_nodes(nx.path_graph(4), labels), _null_factory, 5)
        assert network.node_ids == ("alpha", "bravo", "charlie", "delta")
        for position, node in enumerate(network.node_ids):
            assert network.context(node).rng.random() == u(coin_key(5), position, 0)[0]

    def test_default_context_stream_is_unseeded(self):
        first = NodeContext(node_id=0, neighbors=()).rng
        second = NodeContext(node_id=0, neighbors=()).rng
        assert isinstance(first, CoinStream)
        assert first.key != second.key


class TestBackendsFlipTheSameCoins:
    def test_lrg_redraws_match_simulated(self, monkeypatch):
        # Dense ER graphs keep LRG candidates losing their coin flips for
        # several phases, so nodes advance their counters past 0.
        graph = nx.gnp_random_graph(80, 0.25, seed=3)
        largest_counter = []
        real_u = bulk_lrg.u

        def recording_u(key, node_index, draw_counter):
            largest_counter.append(int(np.max(draw_counter)))
            return real_u(key, node_index, draw_counter)

        monkeypatch.setattr(bulk_lrg, "u", recording_u)
        for seed in range(4):
            simulated = lrg_dominating_set(graph, seed=seed)
            vectorized = lrg_dominating_set(graph, seed=seed, backend="vectorized")
            assert simulated.dominating_set == vectorized.dominating_set
            assert simulated.phases == vectorized.phases
        assert max(largest_counter) >= 1

    def test_rounding_parity_with_string_labels(self):
        # Labels whose sorted order differs from the insertion order, so
        # the coin index is the sorted position, not the label.
        base = nx.gnp_random_graph(40, 0.12, seed=8)
        labels = {node: f"n{(7 * node) % 41:02d}" for node in base}
        graph = nx.relabel_nodes(base, labels)
        x = {node: 0.35 for node in graph}
        for seed in (0, 1, "trial"):
            results = [
                round_fractional_solution(
                    graph,
                    x,
                    seed=seed,
                    require_feasible=False,
                    backend=backend,
                    **({"shards": 2} if backend == "sharded" else {}),
                )
                for backend in BACKENDS
            ]
            reference = results[0]
            for result in results[1:]:
                assert result.dominating_set == reference.dominating_set
                assert result.joined_randomly == reference.joined_randomly


class TestSeededRuns:
    @pytest.fixture(scope="class")
    def graph(self):
        return nx.random_geometric_graph(120, 0.18, seed=4)

    def test_equal_seeds_equal_sets_on_every_backend(self, graph):
        sets = {
            (backend, seed): solve(
                "kuhn-wattenhofer", graph, backend=backend, seed=seed, k=2
            ).dominating_set
            for backend in BACKENDS
            for seed in (3, "3")
        }
        assert len(set(map(frozenset, sets.values()))) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unseeded_runs_differ(self, graph, backend):
        runs = {
            frozenset(
                solve(
                    "kuhn-wattenhofer", graph, backend=backend, seed=None, k=2
                ).dominating_set
            )
            for _ in range(3)
        }
        assert len(runs) > 1
