"""Serial CSR passes and the one CSR assembler, checked on whole graphs.

* Every ``BulkGraph`` constructor reaches the same CSR: ``from_graph``
  (undirected or directed), ``from_edges`` on a shuffled, flipped or
  doubled edge list and the validating constructor on the stored arrays.
* Every operator equals a plain numpy (or Python loop) reference on the
  graph suite, bit for bit, masked or not.
* The bulk kernels on a generator-built CSR select what the
  message-passing simulator selects on its networkx twin, faulted or not.
* Passes over more than 2¹⁹ entries equal their references and start no
  thread.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines.jia_rajaraman_suel import lrg_dominating_set
from repro.core.fractional import approximate_fractional_mds
from repro.core.fractional_unknown import approximate_fractional_mds_unknown_delta
from repro.core.rounding import round_fractional_solution
from repro.core.weighted import approximate_weighted_fractional_mds
from repro.graphs.bulk import bulk_erdos_renyi_graph, bulk_graph_suite
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSpec

from tests.simulator.test_bulk_operators import (
    bincount_count,
    bincount_sum,
    bits,
    closed_max_reference,
)

SUITE = sorted(bulk_graph_suite("large")) + ["empty_rows", "edgeless"]


def suite_graph(name: str) -> BulkGraph:
    if name == "empty_rows":
        # Isolated nodes at the front, the middle and the end of the CSR.
        u = np.array([1, 1, 2, 5, 5, 6], dtype=np.int64)
        v = np.array([2, 5, 5, 6, 8, 8], dtype=np.int64)
        return BulkGraph.from_edges(10, u, v)
    if name == "edgeless":
        empty = np.empty(0, dtype=np.int64)
        return BulkGraph.from_edges(5, empty, empty)
    return bulk_graph_suite("large")[name]


def assert_same_csr(built: BulkGraph, expected: BulkGraph) -> None:
    assert built.n == expected.n
    assert np.array_equal(built.indptr, expected.indptr)
    assert np.array_equal(built.col, expected.col)
    # One stored layout: the same index dtype whichever way it was built.
    assert built.adjacency.indptr.dtype == expected.adjacency.indptr.dtype
    assert built.adjacency.indices.dtype == expected.adjacency.indices.dtype


def closed_chain_reference(bulk: BulkGraph, carry, values, edge_mask=None):
    """``carry_i`` plus each closed neighbour's value, in ascending order.

    ``np.add.at`` accumulates sequentially in index order, so sorting the
    closed-neighbourhood entries by (row, column) fixes each chain's order.
    """
    keep = np.ones(bulk.col.size, dtype=bool) if edge_mask is None else edge_mask
    own = np.arange(bulk.n)
    rows = np.concatenate([bulk.row, own])
    cols = np.concatenate([bulk.col, own])
    terms = np.concatenate(
        [np.where(keep, np.asarray(values)[bulk.col], 0.0), values]
    )
    order = np.lexsort((cols, rows))
    expected = np.array(carry, dtype=np.float64, copy=True)
    np.add.at(expected, rows[order], terms[order])
    return expected


class TestOneAssembler:
    @pytest.mark.parametrize("name", SUITE)
    def test_every_constructor_builds_the_same_csr(self, name):
        bulk = suite_graph(name)
        rng = np.random.default_rng(len(name))
        owners, neighbors = bulk.row, bulk.col
        upper = owners < neighbors
        u, v = owners[upper], neighbors[upper]
        order = rng.permutation(u.size)
        flip = rng.random(u.size) < 0.5
        shuffled = (np.where(flip, v, u)[order], np.where(flip, u, v)[order])
        twin = bulk.to_networkx()
        for built in (
            BulkGraph.from_graph(twin),
            BulkGraph.from_graph(twin.to_directed()),
            BulkGraph.from_edges(bulk.n, *shuffled),
            BulkGraph.from_edges(bulk.n, owners, neighbors),
            BulkGraph(bulk.indptr.copy(), bulk.col.copy()),
        ):
            assert_same_csr(built, bulk)


class TestSuiteOperators:
    @pytest.mark.parametrize("name", SUITE)
    def test_operators_match_their_references(self, name):
        bulk = suite_graph(name)
        rng = np.random.default_rng(0)
        values = rng.standard_normal(bulk.n) * 10.0 ** rng.integers(-6, 6, bulk.n)
        flags = rng.random(bulk.n) < 0.5
        ints = rng.integers(0, 40, bulk.n)
        for edge_mask in (None, rng.random(bulk.col.size) < 0.7):
            assert np.array_equal(
                bits(bulk.neighbor_sum(values, edge_mask=edge_mask)),
                bits(bincount_sum(bulk, values, edge_mask)),
            )
            assert np.array_equal(
                bulk.neighbor_count(flags, edge_mask=edge_mask),
                bincount_count(bulk, flags, edge_mask),
            )
            for maxima in (ints, values):
                assert np.array_equal(
                    bulk.closed_max(maxima, edge_mask=edge_mask),
                    closed_max_reference(bulk, maxima, edge_mask=edge_mask),
                )
            assert np.array_equal(
                bits(bulk.closed_chain_sum(values[::-1], values, edge_mask)),
                bits(closed_chain_reference(bulk, values[::-1], values, edge_mask)),
            )
        assert np.array_equal(
            bulk.closed_max(ints, senders=flags),
            closed_max_reference(bulk, ints, senders=flags),
        )
        assert np.array_equal(
            bulk.closed_max(bulk.degrees), closed_max_reference(bulk, bulk.degrees)
        )
        x = np.abs(values)
        shortfall = np.maximum(1.0 - (x + bincount_sum(bulk, x)), 0.0)
        assert bulk.check_lp_feasible(x)[1] == float(np.max(shortfall, initial=0.0))
        for chosen in (flags, np.ones(bulk.n, dtype=bool)):
            covered = chosen | (bincount_count(bulk, chosen) > 0)
            assert bulk.is_dominating_set(chosen) == bool(covered.all())


@pytest.fixture(scope="module")
def er_pair():
    """A generator-built CSR and its networkx twin for the simulator."""
    bulk = bulk_erdos_renyi_graph(200, 6 / 199, seed=4)
    return bulk, bulk.to_networkx()


def x_array(result, bulk: BulkGraph) -> np.ndarray:
    return np.array([result.x[node] for node in bulk.nodes])


class TestKernelsMatchTheSimulator:
    def test_algorithm2_multi_k_and_weighted(self, er_pair):
        bulk, twin = er_pair
        for k in (1, 2, 3):
            simulated = approximate_fractional_mds(twin, k=k)
            vectorized = approximate_fractional_mds(bulk, k=k, backend="vectorized")
            assert np.array_equal(x_array(simulated, bulk), x_array(vectorized, bulk))
            assert simulated.metrics.total_bits == vectorized.metrics.total_bits
        weights = {node: 1.0 + (node % 5) * 0.75 for node in bulk.nodes}
        simulated = approximate_weighted_fractional_mds(twin, weights, k=2)
        vectorized = approximate_weighted_fractional_mds(
            bulk, weights, k=2, backend="vectorized"
        )
        assert simulated.x == vectorized.x
        assert simulated.objective == vectorized.objective

    def test_algorithm3_multi_k_and_rounding(self, er_pair):
        bulk, twin = er_pair
        for k in (1, 2, 3):
            simulated = approximate_fractional_mds_unknown_delta(twin, k=k)
            vectorized = approximate_fractional_mds_unknown_delta(
                bulk, k=k, backend="vectorized"
            )
            assert np.array_equal(x_array(simulated, bulk), x_array(vectorized, bulk))
        for seed in (0, 1, 2):
            rounded = [
                round_fractional_solution(graph, vectorized.x, seed=seed, **kwargs)
                for graph, kwargs in ((twin, {}), (bulk, {"backend": "vectorized"}))
            ]
            assert rounded[0].dominating_set == rounded[1].dominating_set
            assert rounded[0].joined_randomly == rounded[1].joined_randomly

    def test_bulk_lrg(self, er_pair):
        bulk, twin = er_pair
        simulated = lrg_dominating_set(twin, seed=3)
        vectorized = lrg_dominating_set(bulk, seed=3, backend="vectorized")
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.phases == vectorized.phases
        assert simulated.metrics.total_bits == vectorized.metrics.total_bits

    @pytest.mark.parametrize(
        "loss, crash", [(0.3, 0.0), (0.0, 0.3), (0.2, 0.2), (1.0, 0.0)]
    )
    def test_faulted_schedules(self, er_pair, loss, crash):
        bulk, twin = er_pair
        spec = FaultSpec(loss_probability=loss, crash_probability=crash, seed=7)
        for entry in (approximate_fractional_mds, approximate_fractional_mds_unknown_delta):
            simulated = entry(twin, k=2, faults=spec)
            vectorized = entry(bulk, k=2, faults=spec, backend="vectorized")
            assert simulated.x == vectorized.x
            assert simulated.faults.drops == vectorized.faults.drops
            assert simulated.faults.crashed_nodes == vectorized.faults.crashed_nodes
        x = approximate_fractional_mds(bulk, k=2, backend="vectorized").x
        simulated = round_fractional_solution(twin, x, seed=4, faults=spec)
        vectorized = round_fractional_solution(
            bulk, x, seed=4, faults=spec, backend="vectorized"
        )
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.joined_as_fallback == vectorized.joined_as_fallback


@pytest.fixture(scope="module")
def large_case():
    """A graph of more than 2¹⁹ entries, with values and masks over it,
    and the threads that ran before it was built."""
    threads = set(threading.enumerate())
    bulk = bulk_erdos_renyi_graph(60_000, 10 / 59_999, seed=1)
    assert bulk.col.size >= 1 << 19
    rng = np.random.default_rng(2)
    values = rng.random(bulk.n)
    mask = rng.random(bulk.col.size) < 0.8
    return bulk, values, mask, threads


def maxima_reference(bulk: BulkGraph, values, edge_mask=None) -> np.ndarray:
    keep = np.ones(bulk.col.size, dtype=bool) if edge_mask is None else edge_mask
    expected = np.array(values, copy=True)
    np.maximum.at(expected, bulk.row[keep], expected[bulk.col[keep]])
    return expected


LARGE_PASSES = {
    "neighbor_sum": lambda b, v, m: (
        bits(b.neighbor_sum(v)), bits(bincount_sum(b, v))
    ),
    "masked_neighbor_sum": lambda b, v, m: (
        bits(b.neighbor_sum(v, edge_mask=m)), bits(bincount_sum(b, v, m))
    ),
    "neighbor_count": lambda b, v, m: (
        b.neighbor_count(v < 0.5), bincount_count(b, v < 0.5)
    ),
    "closed_max": lambda b, v, m: (
        b.closed_max(b.degrees), maxima_reference(b, b.degrees)
    ),
    "masked_closed_max": lambda b, v, m: (
        b.closed_max(v, edge_mask=m), maxima_reference(b, v, m)
    ),
    "closed_chain_sum": lambda b, v, m: (
        bits(b.closed_chain_sum(v, v, m)), bits(closed_chain_reference(b, v, v, m))
    ),
}


@pytest.mark.parametrize("name", sorted(LARGE_PASSES))
def test_large_pass_is_serial_and_exact(large_case, name):
    bulk, values, mask, threads = large_case
    result, expected = LARGE_PASSES[name](bulk, values, mask)
    # Neither the build nor the pass started a thread that is still alive.
    assert set(threading.enumerate()) <= threads
    assert np.array_equal(result, expected)
