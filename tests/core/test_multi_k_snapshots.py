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

import math

import numpy as np
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


class TestDistinctOperandTables:
    """``_per_distinct``: the bincount table and np.unique agree bitwise."""

    @staticmethod
    def reference(values, func):
        unique, inverse = np.unique(values, return_inverse=True)
        return np.array([func(value) for value in unique.tolist()])[inverse]

    @pytest.mark.parametrize(
        "values, exponents",
        [
            # Integral, non-negative and no larger than the length: table.
            (np.array([3.0, 1.0, 3.0, 7.0, 0.0, 1.0, 2.0, 7.0]), (0.5, 2.0)),
            (np.array([2, 9, 2, 5, 5, 1, 4, 8, 3, 6], dtype=np.int64), (0.5, -2 / 3)),
            # Everything else: np.unique.
            (np.array([1.5, 2.0, 1.5, 4.25]), (0.5, -2 / 3)),
            (np.array([2.0, 1e9, 2.0]), (0.5, -2 / 3)),
            (np.array([-1.0, 2.0, 2.0]), (2.0, 3.0)),
            (np.array([5.0]), (0.5,)),
        ],
    )
    def test_powers_match_float_pow_per_operand(self, values, exponents):
        for exponent in exponents:
            cache: dict = {}
            got = vectorized_module._unique_powers_cached(values, exponent, cache)
            expected = self.reference(
                values.astype(np.float64), lambda v: float(v) ** exponent
            )
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            assert set(cache) == {(float(v), exponent) for v in np.unique(values)}

    def test_map_calls_func_once_per_distinct_int(self):
        values = np.array([4, 0, 4, 2, 2, 9, 1, 1, 3, 0], dtype=np.int64)
        seen: list = []

        def func(operand):
            seen.append(operand)
            assert type(operand) is int
            return math.log(operand + 1)

        got = vectorized_module._unique_map(values, func)
        assert seen == sorted(set(values.tolist()))
        expected = self.reference(values, lambda v: math.log(int(v) + 1))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_table_path_skips_the_sort(self, monkeypatch):
        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique called on integral operands")

        monkeypatch.setattr(vectorized_module.np, "unique", no_unique)
        values = np.arange(100, dtype=np.float64) % 7
        vectorized_module._unique_powers_cached(values, 0.5, {})
        vectorized_module._unique_map(values.astype(np.int64), float)
