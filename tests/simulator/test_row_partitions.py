"""Row partitions of the CSR passes: split and frontier rows, bitwise equal.

* A pass over at least ``_PARALLEL_MIN_ENTRIES`` entries runs as two row
  halves, one on a worker thread.  With the threshold forced to 0 every
  kernel and every operator must return the serial pass's exact bits.
* ``neighbor_sum(..., rows=...)`` sums only the listed rows; each sum must
  equal the full pass's, masked or not, on both its gather and full paths.
* The worker half writes only into the caller's buffers (it allocates
  nothing), and a forked child does not inherit a pool without a thread.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator.bulk as bulk_module
from repro.baselines.bulk_lrg import run_lrg_bulk
from repro.core.rounding import RoundingRule, rounding_multiplier
from repro.core.vectorized import (
    ROUNDING_EXCHANGES,
    algorithm2_exchanges,
    algorithm3_exchanges,
    run_algorithm2_bulk_multi_k,
    run_algorithm3_bulk_multi_k,
    run_rounding_bulk_batched,
)
from repro.graphs.bulk import bulk_erdos_renyi_graph, bulk_graph_suite
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSpec

from tests.simulator.test_bulk_operators import bits, operator_cases


@pytest.fixture
def split(monkeypatch):
    """Force every CSR pass through the two-half split."""
    monkeypatch.setattr(bulk_module, "_PARALLEL_MIN_ENTRIES", 0)
    monkeypatch.setattr(bulk_module, "available_cpu_count", lambda: 2)


@pytest.fixture
def er_graph() -> BulkGraph:
    return bulk_erdos_renyi_graph(3000, 8 / 2999, seed=4)


def with_empty_rows() -> BulkGraph:
    """Isolated nodes at the front, the middle and the end of the CSR."""
    u = np.array([1, 1, 2, 5, 5, 6], dtype=np.int64)
    v = np.array([2, 5, 5, 6, 8, 8], dtype=np.int64)
    return BulkGraph.from_edges(10, u, v)


def serial_and_split(monkeypatch, call):
    """``call()`` serially and with the split forced, in that order."""
    with monkeypatch.context() as patch:
        patch.setattr(bulk_module, "_PARALLEL_MIN_ENTRIES", 1 << 62)
        serial = call()
    with monkeypatch.context() as patch:
        patch.setattr(bulk_module, "_PARALLEL_MIN_ENTRIES", 0)
        patch.setattr(bulk_module, "available_cpu_count", lambda: 2)
        split = call()
    return serial, split


def assert_same_bits(left, right) -> None:
    """Arrays compared bit for bit (floats by their int64 view)."""
    if isinstance(left, (tuple, list)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_same_bits(a, b)
    elif isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            assert_same_bits(left[key], right[key])
    elif isinstance(left, np.ndarray) and left.dtype == np.float64:
        assert right.dtype == np.float64
        assert np.array_equal(bits(left), bits(right))
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)
    else:
        assert left == right


class TestRowRanges:
    def test_small_pass_is_one_range(self, er_graph):
        assert bulk_module._row_ranges(er_graph.indptr) == [(0, er_graph.n)]

    def test_one_cpu_is_one_range(self, monkeypatch, er_graph):
        monkeypatch.setattr(bulk_module, "_PARALLEL_MIN_ENTRIES", 0)
        monkeypatch.setattr(bulk_module, "available_cpu_count", lambda: 1)
        assert bulk_module._row_ranges(er_graph.indptr) == [(0, er_graph.n)]

    def test_halves_balance_entries(self, split, er_graph):
        (first, middle), (again, last) = bulk_module._row_ranges(er_graph.indptr)
        assert (first, again, last) == (0, middle, er_graph.n)
        entries = er_graph.col.size
        assert abs(2 * int(er_graph.indptr[middle]) - entries) <= 2 * er_graph.max_degree

    def test_split_runs_the_first_half_on_the_worker(
        self, monkeypatch, split, er_graph
    ):
        threads: dict[int, str] = {}
        original = bulk_module._over_row_ranges

        def spy(indptr, kernel):
            def traced(start, stop):
                threads[start] = threading.current_thread().name
                kernel(start, stop)

            original(indptr, traced)

        monkeypatch.setattr(bulk_module, "_over_row_ranges", spy)
        er_graph.neighbor_sum(np.ones(er_graph.n))
        middle = bulk_module._row_ranges(er_graph.indptr)[1][0]
        assert sorted(threads) == [0, middle]
        assert threads[0].startswith("repro-rows")
        assert threads[middle] == threading.current_thread().name

    def test_available_cpu_count_lives_here(self):
        from repro.simulator import sharded

        assert sharded.available_cpu_count is bulk_module.available_cpu_count
        assert bulk_module.available_cpu_count() >= 1

    def test_no_thread_until_a_pass_splits(self):
        # Below the threshold nothing starts the pool: a fresh process that
        # solves a small instance still runs on one thread.
        script = (
            "import threading\n"
            "import repro.api as api\n"
            "import repro.simulator.bulk as bulk\n"
            "from repro.graphs.bulk import bulk_erdos_renyi_graph\n"
            "api.solve('kuhn-wattenhofer', bulk_erdos_renyi_graph(500, 0.02, seed=1), k=2)\n"
            "assert bulk._row_pool is None, bulk._row_pool\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
        )
        package = os.path.dirname(os.path.dirname(bulk_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()


class TestSplitOperatorParity:
    def operators(self, bulk: BulkGraph, seed: int = 0):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(bulk.n) * 10.0 ** rng.integers(-6, 6, bulk.n)
        flags = rng.random(bulk.n) < 0.5
        mask = rng.random(bulk.col.size) < 0.7
        ints = rng.integers(0, 40, bulk.n)

        def call():
            out = []
            for edge_mask in (None, mask):
                out += [
                    bulk.neighbor_sum(values, edge_mask=edge_mask),
                    bulk.neighbor_count(flags, edge_mask=edge_mask),
                    bulk.closed_max(ints, edge_mask=edge_mask),
                    bulk.closed_max(values, edge_mask=edge_mask),
                    bulk.closed_chain_sum(values[::-1], values, edge_mask=edge_mask),
                ]
            out += [
                bulk.closed_max(ints, senders=flags),
                bulk.closed_max(bulk.degrees),
                np.array(bulk.check_lp_feasible(np.abs(values))[1]),
                np.array(bulk.is_dominating_set(flags)),
                np.array(bulk.is_dominating_set(np.ones(bulk.n, dtype=bool))),
            ]
            return out

        return call

    @pytest.mark.parametrize(
        "name", sorted(bulk_graph_suite("large")) + ["empty_rows", "edgeless"]
    )
    def test_graphs(self, monkeypatch, name):
        if name == "empty_rows":
            bulk = with_empty_rows()
        elif name == "edgeless":
            empty = np.empty(0, dtype=np.int64)
            bulk = BulkGraph.from_edges(5, empty, empty)
        else:
            bulk = bulk_graph_suite("large")[name]
        serial, split = serial_and_split(monkeypatch, self.operators(bulk))
        assert_same_bits(serial, split)

    @settings(max_examples=60, deadline=None)
    @given(operator_cases())
    def test_random_graphs(self, case):
        bulk, values, flags, edge_mask = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            serial, split = serial_and_split(
                monkeypatch,
                lambda: [
                    bulk.neighbor_sum(values, edge_mask=edge_mask),
                    bulk.closed_max(values, edge_mask=edge_mask),
                    bulk.closed_max(flags.astype(np.int64), senders=flags),
                    bulk.closed_chain_sum(values, values, edge_mask=edge_mask),
                ],
            )
        assert_same_bits(serial, split)


class TestSplitKernelParity:
    def test_algorithm2_multi_k_and_weighted(self, monkeypatch, er_graph):
        costs = 1.0 + np.random.default_rng(1).random(er_graph.n) * 4.0
        delta = er_graph.max_degree
        serial, split = serial_and_split(
            monkeypatch,
            lambda: (
                run_algorithm2_bulk_multi_k(er_graph, [1, 2, 3], delta),
                run_algorithm2_bulk_multi_k(
                    er_graph, [2, 3], delta, costs=costs, c_max=float(costs.max())
                ),
            ),
        )
        assert_same_bits(serial, split)

    def test_algorithm3_multi_k_and_rounding(self, monkeypatch, er_graph):
        def run():
            fractional = run_algorithm3_bulk_multi_k(er_graph, [1, 2, 3])
            rounding = run_rounding_bulk_batched(
                er_graph,
                fractional[2][0],
                [0, 1, 2],
                lambda delta_two: rounding_multiplier(delta_two, RoundingRule.LOG),
            )
            return fractional, rounding

        serial, split = serial_and_split(monkeypatch, run)
        assert_same_bits(serial, split)

    def test_bulk_lrg(self, monkeypatch, er_graph):
        serial, split = serial_and_split(
            monkeypatch, lambda: run_lrg_bulk(er_graph, seed=3, max_phases=50)
        )
        assert_same_bits(serial, split)

    @pytest.mark.parametrize("loss, crash", [(0.3, 0.0), (0.2, 0.2), (1.0, 0.0)])
    def test_faulted_schedules(self, monkeypatch, er_graph, loss, crash):
        spec = FaultSpec(loss_probability=loss, crash_probability=crash, seed=7)

        def run():
            delta = er_graph.max_degree
            two = spec.materialize(er_graph, rounds=algorithm2_exchanges(2))
            three = spec.materialize(er_graph, rounds=algorithm3_exchanges(2))
            rounding = spec.materialize(er_graph, rounds=ROUNDING_EXCHANGES, salt=1)
            x = run_algorithm3_bulk_multi_k(er_graph, [2], schedule=three)[2][0]
            return (
                run_algorithm2_bulk_multi_k(er_graph, [2], delta, schedule=two),
                x,
                run_rounding_bulk_batched(
                    er_graph,
                    x,
                    [4],
                    lambda delta_two: rounding_multiplier(delta_two, RoundingRule.LOG),
                    schedule=rounding,
                ),
            )

        serial, split = serial_and_split(monkeypatch, run)
        assert_same_bits(serial, split)


class TestFrontierRows:
    @settings(max_examples=150, deadline=None)
    @given(operator_cases(), st.data())
    def test_rows_match_the_full_pass(self, case, data):
        bulk, values, flags, edge_mask = case
        rows = np.flatnonzero(flags)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(bulk_module, "_GATHER_MIN_ENTRIES", 0)
            for fraction in (0.0, 2.0, bulk_module._GATHER_SUM_FRACTION):
                monkeypatch.setattr(bulk_module, "_GATHER_SUM_FRACTION", fraction)
                for mask in (None, edge_mask):
                    full = bulk.neighbor_sum(values, edge_mask=mask)
                    picked = bulk.neighbor_sum(values, edge_mask=mask, rows=rows)
                    assert picked.shape == rows.shape
                    assert np.array_equal(bits(picked), bits(full[rows]))

    def test_both_paths_on_a_large_graph(self, monkeypatch, er_graph):
        assert er_graph.col.size >= bulk_module._GATHER_MIN_ENTRIES
        rng = np.random.default_rng(5)
        values = rng.random(er_graph.n)
        mask = rng.random(er_graph.col.size) < 0.8
        for share in (0.0, 0.01, 0.2, 0.6, 1.0):
            rows = np.flatnonzero(rng.random(er_graph.n) < share)
            for edge_mask in (None, mask):
                full = er_graph.neighbor_sum(values, edge_mask=edge_mask)[rows]
                for fraction in (0.0, 2.0):
                    monkeypatch.setattr(bulk_module, "_GATHER_SUM_FRACTION", fraction)
                    assert np.array_equal(
                        bits(er_graph.neighbor_sum(values, edge_mask, rows)),
                        bits(full),
                    )
                    _, split = serial_and_split(
                        monkeypatch,
                        lambda: er_graph.neighbor_sum(values, edge_mask, rows),
                    )
                    assert np.array_equal(bits(split), bits(full))


    def test_small_graphs_take_the_full_pass(self, monkeypatch):
        bulk = bulk_erdos_renyi_graph(200, 0.05, seed=3)
        assert bulk.col.size < bulk_module._GATHER_MIN_ENTRIES
        passes: list[int] = []
        original = bulk_module._csr_matvec

        def spy(indptr, indices, data, vector):
            passes.append(indptr.size - 1)
            return original(indptr, indices, data, vector)

        monkeypatch.setattr(bulk_module, "_csr_matvec", spy)
        values = np.arange(bulk.n, dtype=np.float64)
        rows = np.arange(3)
        picked = bulk.neighbor_sum(values, rows=rows)
        assert passes == [bulk.n]
        assert np.array_equal(picked, bulk.neighbor_sum(values)[rows])


class _RecordingPool:
    """Stands in for the worker pool: runs each task inline and keeps it."""

    def __init__(self) -> None:
        self.tasks: list = []

    def submit(self, task, *args):
        self.tasks.append((task, args))
        task(*args)
        future: Future = Future()
        future.set_result(None)
        return future


class _IdlePool:
    """A pool whose worker never starts: every submitted task stays queued."""

    def __init__(self) -> None:
        self.futures: list[Future] = []

    def submit(self, task, *args):
        future: Future = Future()
        self.futures.append(future)
        return future


def test_caller_overtakes_a_worker_that_has_not_started(monkeypatch, split, er_graph):
    values = np.random.default_rng(9).random(er_graph.n)
    serial, _ = serial_and_split(monkeypatch, lambda: er_graph.neighbor_sum(values))
    pool = _IdlePool()
    monkeypatch.setattr(bulk_module, "_row_pool", pool)
    overtaken = er_graph.neighbor_sum(values)
    assert len(pool.futures) == 1 and pool.futures[0].cancelled()
    assert np.array_equal(bits(overtaken), bits(serial))


class TestWorkerAllocatesNothing:
    LIMIT = 1 << 20  # bytes

    @pytest.fixture(scope="class")
    def big_graph(self) -> BulkGraph:
        bulk = bulk_erdos_renyi_graph(100_000, 11 / 99_999, seed=2)
        assert bulk.col.size >= 1 << 20
        return bulk

    def worker_peak(self, monkeypatch, call) -> list[int]:
        """Peak traced bytes of each worker-half task ``call`` submitted."""
        pool = _RecordingPool()
        monkeypatch.setattr(bulk_module, "_row_pool", pool)
        call()
        assert pool.tasks
        peaks = []
        for task, args in pool.tasks:
            tracemalloc.start()
            try:
                task(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_matvec_closed_max_and_chain_sum(self, monkeypatch, split, big_graph):
        rng = np.random.default_rng(0)
        values = rng.random(big_graph.n)
        mask = rng.random(big_graph.col.size) < 0.9
        senders = rng.random(big_graph.n) < 0.5
        calls = [
            lambda: big_graph.neighbor_sum(values),
            lambda: big_graph.neighbor_sum(values, edge_mask=mask),
            lambda: big_graph.neighbor_count(np.ones(big_graph.n, dtype=bool)),
            lambda: big_graph.closed_max(big_graph.degrees),
            lambda: big_graph.closed_max(values, edge_mask=mask),
            lambda: big_graph.closed_max(big_graph.degrees, senders=senders),
            lambda: big_graph.closed_chain_sum(values, values),
        ]
        for call in calls:
            for peak in self.worker_peak(monkeypatch, call):
                assert peak < self.LIMIT


def _split_sum_in_child(bulk: BulkGraph, values: np.ndarray, expected) -> None:
    result = bulk.neighbor_sum(values)
    os._exit(0 if np.array_equal(bits(result), bits(expected)) else 3)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_runs_split_kernels(split, er_graph):
    values = np.random.default_rng(8).random(er_graph.n)
    expected = er_graph.neighbor_sum(values)  # starts the parent's pool
    assert bulk_module._row_pool is not None
    child = multiprocessing.get_context("fork").Process(
        target=_split_sum_in_child, args=(er_graph, values, expected)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
        pytest.fail("a forked child hung on a split kernel")
    assert child.exitcode == 0
