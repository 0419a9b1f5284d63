"""Sharded engine: bitwise equivalence with the vectorized backend.

The sharded engine is engineered so that partitioning the CSR across
worker processes is *invisible* in the results: identical x-vectors
(same per-row accumulation order on every slab), identical objectives,
identical round/message metrics, and identical rounding coin flips --
for every shard count, including shards that end up empty because the
graph is smaller than the partition.  These tests pin that down, plus
the partition structure itself and the registry dispatch rules.
"""

from __future__ import annotations

import threading
import warnings

import networkx as nx
import numpy as np
import pytest

from repro.api import CapabilityError, get_spec, resolve_backend
from repro.core.fractional import (
    approximate_fractional_mds,
    approximate_fractional_mds_multi_k,
)
from repro.core.fractional_unknown import (
    approximate_fractional_mds_unknown_delta,
    approximate_fractional_mds_unknown_delta_multi_k,
)
from repro.core.kuhn_wattenhofer import (
    FractionalVariant,
    kuhn_wattenhofer_dominating_set,
)
from repro.core.rounding import (
    round_fractional_solution,
    round_fractional_solution_batched,
)
from repro.core.weighted import (
    approximate_weighted_fractional_mds,
    weighted_kuhn_wattenhofer_dominating_set,
)
from repro.core.vectorized import algorithm2_exchanges, run_algorithm2_bulk_multi_k
from repro.graphs.generators import random_unit_disk_graph
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSpec
from repro.simulator.sharded import (
    DEFAULT_MAX_SHARDS,
    ShardDegradationWarning,
    ShardLayout,
    ShardedDriver,
    resolve_shard_count,
    shard_owner,
)

SHARD_COUNTS = [1, 2, 3, 8]


@pytest.fixture(scope="module")
def unit_disk():
    return random_unit_disk_graph(60, radius=0.22, seed=7)


@pytest.fixture(scope="module")
def disconnected():
    """Two components plus isolated vertices: exercises zero-degree rows."""
    graph = nx.Graph()
    graph.add_nodes_from(range(24))
    graph.add_edges_from((u, u + 1) for u in range(0, 9))
    graph.add_edges_from((u, v) for u in range(12, 18) for v in range(u + 1, 18))
    return graph


def assert_fractional_bitwise_equal(sharded, vectorized):
    """Shard partitioning must be invisible: exact equality everywhere."""
    assert sharded.x == vectorized.x  # bitwise, not approximate
    assert sharded.objective == vectorized.objective
    assert sharded.rounds == vectorized.rounds
    assert sharded.k == vectorized.k
    assert sharded.max_degree == vectorized.max_degree
    assert sharded.metrics.round_count == vectorized.metrics.round_count
    assert sharded.metrics.total_messages == vectorized.metrics.total_messages
    assert sharded.metrics.total_bits == vectorized.metrics.total_bits
    assert sharded.metrics.max_message_bits == vectorized.metrics.max_message_bits
    assert dict(sharded.metrics.messages_per_node) == dict(
        vectorized.metrics.messages_per_node
    )
    assert [r.messages_sent for r in sharded.metrics.rounds] == [
        r.messages_sent for r in vectorized.metrics.rounds
    ]


class TestPartition:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_owner_is_a_partition(self, n, shards):
        owner = shard_owner(n, shards)
        assert owner.shape == (n,)
        assert owner.min() >= 0 and owner.max() < shards

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_layouts_tile_the_graph(self, unit_disk, shards):
        bulk = BulkGraph.from_graph(unit_disk)
        layouts = [
            ShardLayout.build(bulk.indptr, bulk.col, shard, shards)
            for shard in range(shards)
        ]
        owned = np.concatenate([layout.owned for layout in layouts])
        assert np.array_equal(np.sort(owned), np.arange(bulk.n))
        for layout in layouts:
            # Each slab carries its owned rows completely: local degrees
            # match the global CSR degrees.
            assert np.array_equal(
                layout.degrees, bulk.indptr[layout.owned + 1] - bulk.indptr[layout.owned]
            )
            assert np.array_equal(
                np.diff(layout.indptr).astype(np.int64), layout.degrees
            )
            # Ghosts are disjoint from owned vertices and strictly sorted.
            assert not np.intersect1d(layout.owned, layout.ghosts).size
            assert np.all(np.diff(layout.ghosts) > 0) if layout.ghosts.size else True

    def test_resolve_shard_count(self):
        assert resolve_shard_count(3) == 3
        assert 1 <= resolve_shard_count(None) <= DEFAULT_MAX_SHARDS
        with pytest.raises(ValueError):
            resolve_shard_count(0)


class TestFractionalEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_algorithm2_bitwise_equal(self, unit_disk, shards):
        vectorized = approximate_fractional_mds(
            unit_disk, k=2, seed=0, backend="vectorized"
        )
        sharded = approximate_fractional_mds(
            unit_disk, k=2, seed=0, backend="sharded", shards=shards
        )
        assert_fractional_bitwise_equal(sharded, vectorized)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_algorithm3_bitwise_equal(self, unit_disk, shards):
        vectorized = approximate_fractional_mds_unknown_delta(
            unit_disk, k=2, seed=0, backend="vectorized"
        )
        sharded = approximate_fractional_mds_unknown_delta(
            unit_disk, k=2, seed=0, backend="sharded", shards=shards
        )
        assert_fractional_bitwise_equal(sharded, vectorized)

    def test_graph_smaller_than_shard_count(self):
        """Empty shards still participate in every superstep barrier."""
        graph = nx.path_graph(3)
        vectorized = approximate_fractional_mds(graph, k=2, backend="vectorized")
        sharded = approximate_fractional_mds(
            graph, k=2, backend="sharded", shards=8
        )
        assert_fractional_bitwise_equal(sharded, vectorized)

    def test_disconnected_graph(self, disconnected):
        for runner in (
            approximate_fractional_mds,
            approximate_fractional_mds_unknown_delta,
        ):
            vectorized = runner(disconnected, k=2, backend="vectorized")
            sharded = runner(disconnected, k=2, backend="sharded", shards=3)
            assert_fractional_bitwise_equal(sharded, vectorized)

    def test_multi_k_snapshots(self, unit_disk):
        """One sharded sweep equals per-k vectorized runs, all k > 1."""
        k_values = (2, 3, 4)
        for multi_k, single in (
            (approximate_fractional_mds_multi_k, approximate_fractional_mds),
            (
                approximate_fractional_mds_unknown_delta_multi_k,
                approximate_fractional_mds_unknown_delta,
            ),
        ):
            snapshots = multi_k(
                unit_disk, k_values, backend="sharded", shards=2
            )
            assert sorted(snapshots) == sorted(k_values)
            for k in k_values:
                vectorized = single(unit_disk, k=k, backend="vectorized")
                assert_fractional_bitwise_equal(snapshots[k], vectorized)


class TestRoundingAndPipelines:
    def test_rounding_batch_matches_vectorized(self, unit_disk):
        x = approximate_fractional_mds(unit_disk, k=2, backend="vectorized").x
        seeds = [0, 7, 2003]
        sharded = round_fractional_solution_batched(
            unit_disk, x, seeds, backend="sharded", shards=3
        )
        for seed, result in zip(seeds, sharded):
            vectorized = round_fractional_solution(
                unit_disk, x, seed=seed, backend="vectorized"
            )
            assert result.dominating_set == vectorized.dominating_set
            assert result.joined_randomly == vectorized.joined_randomly
            assert result.joined_as_fallback == vectorized.joined_as_fallback
            assert result.metrics.total_messages == vectorized.metrics.total_messages
            assert result.metrics.total_bits == vectorized.metrics.total_bits

    @pytest.mark.parametrize("variant", list(FractionalVariant))
    def test_pipeline_bitwise_equal(self, unit_disk, variant):
        vectorized = kuhn_wattenhofer_dominating_set(
            unit_disk, k=2, seed=3, variant=variant, backend="vectorized"
        )
        sharded = kuhn_wattenhofer_dominating_set(
            unit_disk, k=2, seed=3, variant=variant, backend="sharded", shards=2
        )
        assert sharded.dominating_set == vectorized.dominating_set
        assert sharded.fractional.objective == vectorized.fractional.objective
        assert sharded.total_rounds == vectorized.total_rounds
        assert sharded.total_messages == vectorized.total_messages
        assert sharded.max_message_bits == vectorized.max_message_bits

    def test_weighted_pipeline_bitwise_equal(self, unit_disk):
        weights = {node: 1.0 + (node % 5) for node in unit_disk.nodes()}
        vectorized = weighted_kuhn_wattenhofer_dominating_set(
            unit_disk, weights, k=2, seed=1, backend="vectorized"
        )
        sharded = weighted_kuhn_wattenhofer_dominating_set(
            unit_disk, weights, k=2, seed=1, backend="sharded", shards=2
        )
        assert sharded.dominating_set == vectorized.dominating_set
        assert sharded.fractional.x == vectorized.fractional.x
        assert sharded.cost == vectorized.cost
        assert sharded.total_rounds == vectorized.total_rounds
        assert (
            sharded.rounding.metrics.total_messages
            == vectorized.rounding.metrics.total_messages
        )

    def test_weighted_fractional_bitwise_equal(self, unit_disk):
        weights = {node: 1.0 + (node % 3) for node in unit_disk.nodes()}
        vectorized = approximate_weighted_fractional_mds(
            unit_disk, weights, k=2, backend="vectorized"
        )
        sharded = approximate_weighted_fractional_mds(
            unit_disk, weights, k=2, backend="sharded", shards=3
        )
        assert sharded.x == vectorized.x
        assert sharded.objective == vectorized.objective
        assert sharded.metrics.total_messages == vectorized.metrics.total_messages

    def test_driver_reuse_across_phases(self, unit_disk):
        """One driver serves a whole sweep plus rounding batches."""
        bulk = BulkGraph.from_graph(unit_disk)
        with ShardedDriver(bulk, shards=2) as driver:
            first = approximate_fractional_mds(
                unit_disk,
                k=2,
                backend="sharded",
                _bulk=bulk,
                _executor=driver,
            )
            second = approximate_fractional_mds(
                unit_disk,
                k=3,
                backend="sharded",
                _bulk=bulk,
                _executor=driver,
            )
        assert first.k == 2 and second.k == 3
        for result in (first, second):
            vectorized = approximate_fractional_mds(
                unit_disk, k=result.k, backend="vectorized"
            )
            assert_fractional_bitwise_equal(result, vectorized)


class TestFaultedEquivalence:
    """Fault injection must stay invisible to sharding: one schedule, the
    same bitwise outcome for every shard count."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("variant", list(FractionalVariant))
    def test_faulted_pipeline_bitwise_equal(self, unit_disk, shards, variant):
        spec = FaultSpec(loss_probability=0.25, crash_probability=0.25, seed=6)
        vectorized = kuhn_wattenhofer_dominating_set(
            unit_disk, k=2, seed=3, variant=variant, backend="vectorized", faults=spec
        )
        sharded = kuhn_wattenhofer_dominating_set(
            unit_disk,
            k=2,
            seed=3,
            variant=variant,
            backend="sharded",
            shards=shards,
            faults=spec,
        )
        assert sharded.dominating_set == vectorized.dominating_set
        assert sharded.fractional.x == vectorized.fractional.x
        assert sharded.rounding.joined_randomly == vectorized.rounding.joined_randomly
        assert sharded.repair == vectorized.repair
        assert sharded.fractional.faults.drops == vectorized.fractional.faults.drops
        assert (
            sharded.fractional.metrics.total_messages
            == vectorized.fractional.metrics.total_messages
        )

    def test_faulted_fractional_matches_simulated(self, unit_disk):
        spec = FaultSpec(loss_probability=0.2, crash_probability=0.2, seed=1)
        simulated = approximate_fractional_mds(
            unit_disk, k=2, faults=spec, backend="simulated"
        )
        sharded = approximate_fractional_mds(
            unit_disk, k=2, faults=spec, backend="sharded", shards=3
        )
        assert sharded.x == simulated.x
        assert sharded.faults.drops == simulated.faults.drops


class TestCrashRecovery:
    """A killed worker must be detected, respawned, and the command
    replayed -- without changing any result."""

    @pytest.fixture(scope="class")
    def crash_setup(self):
        graph = random_unit_disk_graph(80, radius=0.2, seed=11)
        bulk = BulkGraph.from_graph(graph)
        delta = int(bulk.degrees.max())
        spec = FaultSpec(loss_probability=0.2, crash_probability=0.2, seed=4)
        schedule = spec.materialize(bulk, rounds=algorithm2_exchanges(2))
        expected = run_algorithm2_bulk_multi_k(bulk, (2,), delta, schedule=schedule)[2]
        return bulk, delta, schedule, expected

    def test_idle_kill_is_recovered(self, crash_setup):
        bulk, delta, schedule, expected = crash_setup
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardDegradationWarning)
            with ShardedDriver(bulk, shards=3, heartbeat=0.2) as driver:
                driver._procs[0].kill()
                driver._procs[0].join()
                values, metrics = driver.run_algorithm2_multi_k((2,), delta, schedule=schedule)[2]
                assert np.array_equal(values, expected[0])
                assert metrics.total_messages == expected[1].total_messages
                # The respawned pool keeps serving subsequent commands.
                again, _ = driver.run_algorithm2_multi_k((2,), delta, schedule=schedule)[2]
                assert np.array_equal(again, expected[0])

    def test_mid_command_kill_is_recovered(self, crash_setup):
        bulk, delta, schedule, expected = crash_setup
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardDegradationWarning)
            with ShardedDriver(bulk, shards=3, heartbeat=0.2) as driver:
                killer = threading.Timer(0.05, driver._procs[1].kill)
                killer.start()
                try:
                    values, metrics = driver.run_algorithm2_multi_k((2,), delta, schedule=schedule)[2]
                finally:
                    killer.join()
                assert np.array_equal(values, expected[0])
                assert metrics.total_bits == expected[1].total_bits

    def test_eof_on_reply_is_recovered(self, crash_setup):
        """A pipe that hits EOF mid-collect (poll() True, recv() fails)
        must route through recovery, not raise EOFError."""
        bulk, delta, schedule, expected = crash_setup
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShardDegradationWarning)
            with ShardedDriver(bulk, shards=3, heartbeat=0.2) as driver:
                driver._procs[0].kill()
                driver._procs[0].join()
                real = driver._conns[0]

                class EOFPipe:
                    """Dead worker whose pipe reads as EOF: send appears
                    delivered, poll() signals readable, recv() raises."""

                    tripped = False

                    def send(self, obj):
                        pass

                    def poll(self, timeout=None):
                        return True

                    def recv(self):
                        EOFPipe.tripped = True
                        raise EOFError

                    def close(self):
                        real.close()

                driver._conns[0] = EOFPipe()
                values, metrics = driver.run_algorithm2_multi_k((2,), delta, schedule=schedule)[2]
                assert EOFPipe.tripped
                assert np.array_equal(values, expected[0])
                assert metrics.total_messages == expected[1].total_messages

    def test_exhausted_respawns_degrade_with_warning(self, crash_setup):
        bulk, delta, schedule, expected = crash_setup
        with ShardedDriver(bulk, shards=3, heartbeat=0.2, max_respawns=0) as driver:
            driver._procs[2].kill()
            driver._procs[2].join()
            with pytest.warns(ShardDegradationWarning) as caught:
                values, metrics = driver.run_algorithm2_multi_k((2,), delta, schedule=schedule)[2]
            warning = caught[0].message
            assert warning.command == "alg2"
            assert 2 in warning.shard_ids
            # The fallback reproduces the sharded result exactly.
            assert np.array_equal(values, expected[0])
            assert metrics.total_messages == expected[1].total_messages
            # Later commands stay on the fallback without re-warning.
            with warnings.catch_warnings():
                warnings.simplefilter("error", ShardDegradationWarning)
                again, _ = driver.run_algorithm2_multi_k((2,), delta, schedule=schedule)[2]
            assert np.array_equal(again, expected[0])
            rss = driver.peak_rss_bytes()
            assert len(rss) == 1 and rss[0] > 0

    def test_driver_parameter_validation(self, crash_setup):
        bulk = crash_setup[0]
        with pytest.raises(ValueError, match="heartbeat"):
            ShardedDriver(bulk, shards=1, heartbeat=0.0)
        with pytest.raises(ValueError, match="max_respawns"):
            ShardedDriver(bulk, shards=1, max_respawns=-1)


class TestDispatch:
    def test_shards_on_non_sharded_algorithm(self, unit_disk):
        with pytest.raises(CapabilityError, match="sharded execution"):
            resolve_backend("greedy", unit_disk, shards=2)

    def test_shards_with_forced_vectorized(self, unit_disk):
        with pytest.raises(ValueError, match="requires backend='sharded'"):
            resolve_backend(
                "kuhn-wattenhofer", unit_disk, backend="vectorized", shards=2
            )

    def test_collect_trace_rejected_on_sharded(self, unit_disk):
        with pytest.raises(CapabilityError, match="collect_trace"):
            resolve_backend(
                "kuhn-wattenhofer", unit_disk, collect_trace=True, shards=2
            )
        with pytest.raises(CapabilityError, match="collect_trace"):
            kuhn_wattenhofer_dominating_set(
                unit_disk, k=2, collect_trace=True, backend="sharded"
            )

    def test_auto_with_shards_resolves_sharded(self, unit_disk):
        assert resolve_backend("kuhn-wattenhofer", unit_disk, shards=2) == "sharded"
        assert (
            resolve_backend(
                "kuhn-wattenhofer", unit_disk, backend="sharded", shards=2
            )
            == "sharded"
        )

    def test_registry_marks_sharded_capability(self):
        assert get_spec("kuhn-wattenhofer").supports_backend("sharded")
        assert get_spec("weighted-kuhn-wattenhofer").supports_backend("sharded")
        assert not get_spec("greedy").supports_backend("sharded")
