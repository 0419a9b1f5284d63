"""Parity of the CSR neighbourhood operators and the array-native hand-off.

* ``neighbor_sum`` / ``neighbor_count`` are a sparse matvec; they must equal
  the row-ordered ``bincount`` reference bit for bit, masked or not.
* ``neighbor_count`` / ``closed_max`` push from small frontiers and pull
  otherwise; both paths must agree on every frontier size.
* The bulk fractional results keep their x-vector and per-node message
  counts as arrays; the lazily built mappings must equal the eager ones.
"""

from __future__ import annotations

import pickle
import sys
import threading
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.simulator.bulk as bulk_module
from repro.core.fractional import _package_fractional
from repro.core.fractional_unknown import approximate_fractional_mds_unknown_delta
from repro.core.kuhn_wattenhofer import kuhn_wattenhofer_dominating_set
from repro.core.vectorized import NodeValues, x_array_from_mapping
from repro.domset.validation import is_dominating_set
from repro.graphs.bulk import bulk_erdos_renyi_graph
from repro.simulator.bulk import BulkGraph


def bincount_sum(bulk: BulkGraph, values, edge_mask=None) -> np.ndarray:
    """The row-ordered reference: each row summed left to right from 0.0."""
    keep = np.ones(bulk.col.size, dtype=bool) if edge_mask is None else edge_mask
    weights = np.asarray(values, dtype=np.float64)[bulk.col[keep]]
    return np.bincount(bulk.row[keep], weights=weights, minlength=bulk.n)


def bincount_count(bulk: BulkGraph, flags, edge_mask=None) -> np.ndarray:
    hits = np.asarray(flags, dtype=bool)[bulk.col]
    if edge_mask is not None:
        hits &= edge_mask
    return np.bincount(bulk.row[hits], minlength=bulk.n)


def star(leaves: int) -> BulkGraph:
    """A hub with ``leaves`` leaves plus a few isolated nodes."""
    hub = np.zeros(leaves, dtype=np.int64)
    return BulkGraph.from_edges(leaves + 4, hub, np.arange(1, leaves + 1))


@st.composite
def csr_graphs(draw) -> BulkGraph:
    kind = draw(st.sampled_from(["random", "edgeless", "star"]))
    if kind == "star":
        return star(draw(st.integers(1, 60)))
    n = draw(st.integers(1, 40))
    if kind == "edgeless" or n == 1:
        empty = np.empty(0, dtype=np.int64)
        return BulkGraph.from_edges(n, empty, empty)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=4 * n,
        )
    )
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return BulkGraph.from_edges(n, u, v)


@st.composite
def operator_cases(draw):
    bulk = draw(csr_graphs())
    values = draw(
        hnp.arrays(
            np.float64,
            bulk.n,
            elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        )
    )
    flags = draw(hnp.arrays(np.bool_, bulk.n))
    edge_mask = draw(hnp.arrays(np.bool_, bulk.col.size))
    return bulk, values, flags, edge_mask


def bits(array: np.ndarray) -> np.ndarray:
    return np.asarray(array, dtype=np.float64).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(csr_graphs(), st.data())
def test_neighbors_of_concatenates_the_rows(bulk, data):
    rows = np.array(
        data.draw(st.lists(st.integers(0, bulk.n - 1), max_size=12)), dtype=np.int64
    )
    expected = [c for r in rows for c in bulk.col[bulk.indptr[r] : bulk.indptr[r + 1]]]
    assert bulk.neighbors_of(rows).tolist() == expected


class TestMatvecMatchesBincount:
    @settings(max_examples=200, deadline=None)
    @given(operator_cases())
    def test_sum_and_count_bitwise(self, case):
        bulk, values, flags, edge_mask = case
        for mask in (None, edge_mask):
            assert np.array_equal(
                bits(bulk.neighbor_sum(values, edge_mask=mask)),
                bits(bincount_sum(bulk, values, mask)),
            )
            count = bulk.neighbor_count(flags, edge_mask=mask)
            assert count.dtype == np.int64
            assert np.array_equal(count, bincount_count(bulk, flags, mask))
            assert np.array_equal(
                bulk.neighbor_any(flags, edge_mask=mask),
                bincount_count(bulk, flags, mask) > 0,
            )

    @settings(max_examples=100, deadline=None)
    @given(operator_cases())
    def test_closed_chain_sum_matches_python_loop(self, case):
        bulk, values, _, edge_mask = case
        carry = values[::-1].copy()
        for mask in (None, edge_mask):
            expected = np.empty(bulk.n)
            for node in range(bulk.n):
                row = range(bulk.indptr[node], bulk.indptr[node + 1])
                senders = sorted(
                    [node]
                    + [int(bulk.col[j]) for j in row if mask is None or mask[j]]
                )
                total = 0.0 + float(carry[node])
                for sender in senders:
                    total += float(values[sender])
                expected[node] = total
            assert np.array_equal(
                bits(bulk.closed_chain_sum(carry, values, edge_mask=mask)),
                bits(expected),
            )

    def test_skewed_star(self):
        bulk = star(500)
        rng = np.random.default_rng(7)
        values = rng.standard_normal(bulk.n) * 10.0 ** rng.integers(-8, 8, bulk.n)
        mask = rng.random(bulk.col.size) < 0.5
        for edge_mask in (None, mask):
            assert np.array_equal(
                bits(bulk.neighbor_sum(values, edge_mask=edge_mask)),
                bits(bincount_sum(bulk, values, edge_mask)),
            )


def frontier_sizes(bulk: BulkGraph, order: np.ndarray, fraction: float) -> list[int]:
    """0, 1, the sizes just below / at the switch, and all nodes."""
    reach = np.cumsum(bulk.degrees[order])
    switch = int(np.searchsorted(reach, fraction * bulk.col.size))
    return [0, 1, switch, switch + 1, bulk.n]


@pytest.fixture
def er_graph() -> BulkGraph:
    return bulk_erdos_renyi_graph(3000, 8 / 2999, seed=4)


def run_with(monkeypatch, fraction: float, call):
    """Run ``call`` with both push switches at ``fraction`` of 2m."""
    with monkeypatch.context() as patch:
        patch.setattr(bulk_module, "_PUSH_COUNT_FRACTION", fraction)
        patch.setattr(bulk_module, "_PUSH_MAX_FRACTION", fraction)
        return call()


class TestPushMatchesPull:
    def paths(self, monkeypatch, bulk, call) -> list[bool]:
        """Which path each ``_frontier_entries`` call took (True = push)."""
        taken: list[bool] = []
        original = BulkGraph._frontier_entries

        def spy(self, sources, fraction):
            entries = original(self, sources, fraction)
            taken.append(entries is not None)
            return entries

        monkeypatch.setattr(BulkGraph, "_frontier_entries", spy)
        call()
        monkeypatch.setattr(BulkGraph, "_frontier_entries", original)
        return taken

    def test_neighbor_count(self, monkeypatch, er_graph):
        order = np.random.default_rng(1).permutation(er_graph.n)
        fraction = bulk_module._PUSH_COUNT_FRACTION
        sizes = frontier_sizes(er_graph, order, fraction)
        for size in sizes:
            flags = np.zeros(er_graph.n, dtype=bool)
            flags[order[:size]] = True
            call = lambda: er_graph.neighbor_count(flags)  # noqa: E731
            pushed = run_with(monkeypatch, 2.0, call)
            pulled = run_with(monkeypatch, 0.0, call)
            assert pushed.dtype == pulled.dtype == np.int64
            assert np.array_equal(pushed, pulled)
            assert np.array_equal(call(), pulled)
            push_taken = self.paths(monkeypatch, er_graph, call)
            assert push_taken == [
                int(er_graph.degrees[flags].sum()) < fraction * er_graph.col.size
            ]
        assert sizes[2] > 1

    def test_closed_max(self, monkeypatch, er_graph):
        rng = np.random.default_rng(2)
        order = rng.permutation(er_graph.n)
        fraction = bulk_module._PUSH_MAX_FRACTION
        for size in frontier_sizes(er_graph, order, fraction):
            values = np.zeros(er_graph.n, dtype=np.int64)
            values[order[:size]] = rng.integers(1, 50, size)
            call = lambda: er_graph.closed_max(values)  # noqa: E731
            pushed = run_with(monkeypatch, 2.0, call)
            pulled = run_with(monkeypatch, 0.0, call)
            assert np.array_equal(pushed, pulled)
            assert np.array_equal(call(), pulled)
            assert self.paths(monkeypatch, er_graph, call) == [
                int(er_graph.degrees[values > 0].sum())
                < fraction * er_graph.col.size
            ]

    def test_masked_and_float_maxima_pull(self, er_graph):
        values = er_graph.degrees.copy()
        mask = np.random.default_rng(3).random(er_graph.col.size) < 0.7
        reference = values.copy()
        for node in range(er_graph.n):
            row = slice(er_graph.indptr[node], er_graph.indptr[node + 1])
            kept = er_graph.col[row][mask[row]]
            if kept.size:
                reference[node] = max(reference[node], values[kept].max())
        assert np.array_equal(er_graph.closed_max(values, edge_mask=mask), reference)
        assert np.array_equal(
            er_graph.closed_max(values.astype(np.float64)),
            er_graph.closed_max(values).astype(np.float64),
        )

    def test_degree_maxima_cached(self, er_graph):
        delta_one, delta_two = er_graph.degree_maxima()
        assert er_graph.degree_maxima()[0] is delta_one
        assert np.array_equal(delta_one, er_graph.closed_max(er_graph.degrees))
        assert np.array_equal(delta_two, er_graph.closed_max(delta_one))
        assert not delta_two.flags.writeable


class TestArrayHandOff:
    def test_accumulate_objective_equals_python_sum(self):
        rng = np.random.default_rng(11)
        values = rng.random(10**6) * 10.0 ** rng.integers(-6, 3, 10**6)
        fake_bulk = SimpleNamespace(nodes=tuple(range(values.size)))
        result = _package_fractional(
            fake_bulk, values, SimpleNamespace(round_count=0), k=1, true_delta=0
        )
        assert result.objective == sum(result.x.values())
        # The pairwise np.sum differs on this input, so the check has teeth.
        assert float(np.sum(values)) != result.objective

    def test_lazy_mappings_match_simulated(self):
        graph = nx.gnp_random_graph(60, 0.1, seed=5)
        simulated = approximate_fractional_mds_unknown_delta(graph, k=2)
        vectorized = approximate_fractional_mds_unknown_delta(
            graph, k=2, backend="vectorized"
        )
        assert isinstance(vectorized.x, NodeValues)
        assert vectorized.x == simulated.x and simulated.x == vectorized.x
        assert dict(vectorized.x) == simulated.x
        assert list(vectorized.x) == list(simulated.x)
        assert vectorized.objective == simulated.objective

        metrics = pickle.loads(pickle.dumps(vectorized.metrics))
        for lazy in (vectorized.metrics, metrics):
            assert lazy.messages_per_node == simulated.metrics.messages_per_node
            assert lazy.bits_per_node == simulated.metrics.bits_per_node
        assert vectorized.metrics == simulated.metrics
        merged: dict = {}
        merged.update(metrics.messages_per_node)
        assert merged == simulated.metrics.messages_per_node

    def test_lazy_mappings_under_concurrent_first_reads(self):
        bulk = bulk_erdos_renyi_graph(20_000, 6 / 19_999, seed=6)

        def run():
            return approximate_fractional_mds_unknown_delta(
                bulk, k=2, backend="vectorized"
            )

        reference = run()
        expected = (
            dict(reference.x),
            dict(reference.metrics.messages_per_node),
            dict(reference.metrics.bits_per_node),
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                result = run()
                start = threading.Barrier(8)
                seen: list[bool] = []

                def read(result=result, start=start, seen=seen):
                    start.wait(timeout=30)
                    metrics = result.metrics
                    seen.append(
                        (
                            dict(result.x),
                            dict(metrics.messages_per_node),
                            dict(metrics.bits_per_node),
                        )
                        == expected
                    )

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [True] * len(threads)
        finally:
            sys.setswitchinterval(interval)

    def test_x_array_is_shared_and_read_only(self):
        bulk = bulk_erdos_renyi_graph(200, 0.05, seed=1)
        result = approximate_fractional_mds_unknown_delta(
            bulk, k=2, backend="vectorized"
        )
        array = x_array_from_mapping(bulk, result.x)
        assert array is result.x.array
        assert not array.flags.writeable
        copy = x_array_from_mapping(bulk, dict(result.x))
        assert np.array_equal(copy, array)

    def test_membership_mask_validation(self):
        bulk = bulk_erdos_renyi_graph(300, 0.02, seed=2)
        result = kuhn_wattenhofer_dominating_set(bulk, k=2, seed=1, backend="vectorized")
        in_set = result.rounding.in_set
        assert not in_set.flags.writeable
        assert frozenset(np.flatnonzero(in_set).tolist()) == result.dominating_set
        assert is_dominating_set(bulk, in_set)
        assert not is_dominating_set(bulk, np.zeros(bulk.n, dtype=bool))
        with pytest.raises(ValueError):
            is_dominating_set(bulk, in_set[:-1])
