"""The prefix-snapshot engine: bitwise per-k snapshots from one execution.

Two contracts are pinned here:

1. **Bitwise snapshots** -- for every k in the sweep, the snapshot engine's
   x-vector and modeled metrics equal an independent k-run of the same
   algorithm on either backend (the shared transcendental tables and the
   shared δ⁽²⁾ prefix cannot drift a single ULP).
2. **Single execution** -- the tradeoff/pipeline/fractional sweeps evaluate
   all k values of an instance from *one* engine invocation: the
   algorithm's kernel runs exactly once per instance.
"""

from __future__ import annotations

import pytest

import repro.core.vectorized as vectorized_module
from repro.analysis.experiment import (
    as_instances,
    sweep_fractional,
    sweep_pipeline,
    sweep_tradeoff,
)
from repro.core.fractional import (
    approximate_fractional_mds,
    approximate_fractional_mds_multi_k,
)
from repro.core.fractional_unknown import (
    approximate_fractional_mds_unknown_delta,
    approximate_fractional_mds_unknown_delta_multi_k,
)
from repro.core.kuhn_wattenhofer import FractionalVariant
from repro.graphs.bulk import bulk_unit_disk_graph
from repro.graphs.generators import graph_suite

K_VALUES = [1, 2, 3, 4, 5, 6]
TINY = sorted(graph_suite("tiny", seed=5).items())


def assert_result_equal(snapshot, independent):
    assert snapshot.x == independent.x  # bitwise, not approx
    assert snapshot.objective == independent.objective
    assert snapshot.rounds == independent.rounds
    assert snapshot.k == independent.k
    assert snapshot.max_degree == independent.max_degree
    assert snapshot.metrics.total_messages == independent.metrics.total_messages
    assert snapshot.metrics.total_bits == independent.metrics.total_bits
    assert snapshot.metrics.max_message_bits == independent.metrics.max_message_bits
    assert dict(snapshot.metrics.bits_per_node) == dict(
        independent.metrics.bits_per_node
    )


class TestSnapshotBitwiseEquality:
    @pytest.mark.parametrize("name,graph", TINY, ids=[name for name, _ in TINY])
    def test_algorithm2_snapshots(self, name, graph):
        snapshots = approximate_fractional_mds_multi_k(
            graph, K_VALUES, backend="vectorized"
        )
        for k in K_VALUES:
            assert_result_equal(
                snapshots[k],
                approximate_fractional_mds(graph, k=k, backend="vectorized"),
            )
            # ... and therefore equal to the message-passing execution too.
            assert snapshots[k].x == approximate_fractional_mds(graph, k=k).x

    @pytest.mark.parametrize("name,graph", TINY, ids=[name for name, _ in TINY])
    def test_algorithm3_snapshots(self, name, graph):
        snapshots = approximate_fractional_mds_unknown_delta_multi_k(
            graph, K_VALUES, backend="vectorized"
        )
        for k in K_VALUES:
            assert_result_equal(
                snapshots[k],
                approximate_fractional_mds_unknown_delta(
                    graph, k=k, backend="vectorized"
                ),
            )
            assert (
                snapshots[k].x
                == approximate_fractional_mds_unknown_delta(graph, k=k).x
            )

    def test_bulk_graph_input(self):
        bulk = bulk_unit_disk_graph(300, radius=0.1, seed=2)
        snapshots = approximate_fractional_mds_unknown_delta_multi_k(
            bulk, [2, 4], backend="vectorized"
        )
        for k in (2, 4):
            independent = approximate_fractional_mds_unknown_delta(
                bulk, k=k, backend="vectorized"
            )
            assert snapshots[k].x == independent.x

    def test_simulated_backend_loops_per_k(self, grid):
        snapshots = approximate_fractional_mds_multi_k(grid, [1, 2])
        for k in (1, 2):
            assert snapshots[k].x == approximate_fractional_mds(grid, k=k).x


class CallCounter:
    def __init__(self, target):
        self.target = target
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.target(*args, **kwargs)


@pytest.fixture
def engine_counters(monkeypatch):
    """Count Algorithm 2 / Algorithm 3 kernel invocations."""
    multi2 = CallCounter(vectorized_module.run_algorithm2_bulk_multi_k)
    multi3 = CallCounter(vectorized_module.run_algorithm3_bulk_multi_k)
    monkeypatch.setattr(vectorized_module, "run_algorithm2_bulk_multi_k", multi2)
    monkeypatch.setattr(vectorized_module, "run_algorithm3_bulk_multi_k", multi3)
    return {"multi": (multi2, multi3)}


class TestSingleExecutionSweeps:
    def test_tradeoff_sweep_is_one_fractional_execution(self, engine_counters):
        instances = as_instances(
            {"unit_disk_csr": bulk_unit_disk_graph(150, radius=0.15, seed=1)}
        )
        records = sweep_tradeoff(
            instances,
            K_VALUES,
            trials=2,
            backend="vectorized",
            variant=FractionalVariant.UNKNOWN_DELTA,
        )
        assert len(records) == len(K_VALUES)
        multi2, multi3 = engine_counters["multi"]
        # All six k values came out of one kernel invocation.
        assert multi2.calls + multi3.calls == 1

    def test_fractional_and_pipeline_sweeps_share_the_engine(
        self, engine_counters, unit_disk
    ):
        instances = as_instances({"unit_disk": unit_disk})
        sweep_fractional(
            instances,
            K_VALUES,
            variant=FractionalVariant.KNOWN_DELTA,
            backend="vectorized",
        )
        sweep_pipeline(
            instances,
            K_VALUES,
            trials=2,
            variant=FractionalVariant.UNKNOWN_DELTA,
            backend="vectorized",
        )
        multi2, multi3 = engine_counters["multi"]
        assert multi2.calls == 1  # the fractional sweep (known Δ)
        assert multi3.calls == 1  # the pipeline sweep (unknown Δ)
