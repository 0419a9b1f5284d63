"""Parity of the CSR neighbourhood operators and the array-native hand-off.

* ``neighbor_sum`` / ``neighbor_count`` are a sparse matvec; they must equal
  the row-ordered ``bincount`` reference bit for bit, masked or not.
* ``neighbor_count`` / ``closed_max`` push from small frontiers and pull
  otherwise; both paths must agree on every frontier size.
* ``neighbor_sum(..., rows=...)`` sums only the listed rows, bitwise as
  the full pass does.  Every pass is serial: a large solve starts no
  thread, and a forked child runs the operators.
* The bulk fractional results keep their x-vector and per-node message
  counts as arrays; the lazily built mappings must equal the eager ones.
* The rounding results keep their joined sets as masks, graphs build
  ``row`` on first read and share their labels, and payload bits come
  from a table and a broadcast fast path: each must equal the eager or
  general computation it replaces.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import weakref
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.simulator.bulk as bulk_module
from repro.api import solve
from repro.core.fractional import _package_fractional, approximate_fractional_mds
from repro.core.fractional_unknown import approximate_fractional_mds_unknown_delta
from repro.core.kuhn_wattenhofer import kuhn_wattenhofer_dominating_set
from repro.core.rounding import round_fractional_solution
from repro.core.vectorized import NodeValues, x_array_from_mapping
from repro.domset.validation import is_dominating_set
from repro.graphs.bulk import bulk_erdos_renyi_graph
from repro.lp.duality import lemma1_lower_bound
from repro.simulator.bulk import (
    BOOL_PAYLOAD_BITS,
    FLOAT_PAYLOAD_BITS,
    BulkGraph,
    BulkMetricsBuilder,
    int_payload_bits,
    range_labels,
)
from repro.simulator.message import payload_size_bits


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


def closed_max_reference(bulk: BulkGraph, values, senders=None, edge_mask=None):
    """Each node's own value, raised by every delivered neighbour's."""
    expected = np.array(values, copy=True)
    for node in range(bulk.n):
        for j in range(bulk.indptr[node], bulk.indptr[node + 1]):
            sender = bulk.col[j]
            delivered = edge_mask is None or edge_mask[j]
            if delivered and (senders is None or senders[sender]):
                expected[node] = max(expected[node], values[sender])
    return expected


def radix_limit(bulk: BulkGraph) -> int:
    """The largest value the radix pull encodes on ``bulk``."""
    base = bulk.max_degree.bit_length() + 1
    return (1022 - base) // base


def closed_max_path(
    monkeypatch, bulk, values, closed_max=BulkGraph.closed_max, **masks
) -> tuple[np.ndarray, str]:
    """``closed_max``'s result and the path it took.

    ``push`` (frontier entries handed out), ``radix`` (a matvec),
    ``reference`` (the take/reduceat row pass) or ``own`` (no edges).
    """
    from scipy.sparse import _sparsetools

    taken: list[str] = []
    frontier = BulkGraph._frontier_entries
    matvec = bulk_module._csr_matvec
    scale_columns = _sparsetools.csr_scale_columns

    def spy_frontier(self, sources, fraction):
        entries = frontier(self, sources, fraction)
        if entries is not None:
            taken.append("push")
        return entries

    def spy_matvec(*args):
        taken.append("radix")
        return matvec(*args)

    def spy_gather(*args):
        taken.append("gather")
        return scale_columns(*args)

    with monkeypatch.context() as patch:
        patch.setattr(BulkGraph, "_frontier_entries", spy_frontier)
        patch.setattr(bulk_module, "_csr_matvec", spy_matvec)
        patch.setattr(_sparsetools, "csr_scale_columns", spy_gather)
        result = closed_max(bulk, values, **masks)
    path = {
        (): "own",
        ("push",): "push",
        ("radix",): "radix",
        ("gather",): "reference",
    }[tuple(taken)]
    return result, path


def expected_path(bulk, values, masked: bool, fraction: float) -> str:
    if not bulk.col.size:
        return "own"
    if values.min() < 0 or not np.issubdtype(values.dtype, np.integer):
        return "reference"
    if not masked and int(bulk.degrees[values > 0].sum()) < fraction * bulk.col.size:
        return "push"
    return "radix" if values.max() <= radix_limit(bulk) else "reference"


@st.composite
def radix_cases(draw):
    """Integer values up to one above the radix limit, with both masks."""
    bulk = draw(csr_graphs())
    limit = radix_limit(bulk)
    values = draw(hnp.arrays(np.int64, bulk.n, elements=st.integers(0, limit)))
    values[draw(st.integers(0, bulk.n - 1))] = draw(
        st.sampled_from([0, limit, limit + 1])
    )
    senders = draw(hnp.arrays(np.bool_, bulk.n))
    edge_mask = draw(hnp.arrays(np.bool_, bulk.col.size))
    return bulk, values, senders, edge_mask


class TestRadixClosedMax:
    """The radix-encoded pull equals the row-by-row maximum exactly."""

    def check(self, monkeypatch, bulk, values, senders, edge_mask) -> None:
        floats = values.astype(np.float64)
        for fraction in (0.0, 2.0):
            monkeypatch.setattr(bulk_module, "_PUSH_MAX_FRACTION", fraction)
            for masks in (
                {},
                {"senders": senders},
                {"edge_mask": edge_mask},
                {"senders": senders, "edge_mask": edge_mask},
            ):
                result, path = closed_max_path(monkeypatch, bulk, values, **masks)
                assert path == expected_path(bulk, values, bool(masks), fraction)
                assert result.dtype == values.dtype
                expected = closed_max_reference(bulk, values, **masks)
                assert np.array_equal(result, expected)
                # The take/reduceat pull, which floats take, agrees too.
                pulled, pull_path = closed_max_path(monkeypatch, bulk, floats, **masks)
                assert pull_path in ("reference", "own")
                assert np.array_equal(pulled, expected.astype(np.float64))

    @settings(max_examples=150, deadline=None)
    @given(radix_cases())
    def test_random_graphs(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(monkeypatch, *case)

    @pytest.mark.parametrize("delta", [1, 2, 7, 8, 127, 128])
    @pytest.mark.parametrize("above", [False, True])
    def test_full_star_rows_at_the_limit(self, monkeypatch, delta, above):
        # Δ = 2ʲ − 1 and 2ʲ on either side of a base change: the hub sums Δ
        # terms that all sit at the largest encodable value (or one above).
        bulk = star(delta)
        limit = radix_limit(bulk)
        values = np.full(bulk.n, limit + above, dtype=np.int64)
        values[0] = 0
        rng = np.random.default_rng(delta)
        senders = rng.random(bulk.n) < 0.5
        edge_mask = rng.random(bulk.col.size) < 0.5
        self.check(monkeypatch, bulk, values, senders, edge_mask)

    def test_narrow_and_unsigned_dtypes(self, monkeypatch, er_graph):
        values = np.random.default_rng(5).integers(0, 60, er_graph.n)
        expected = closed_max_reference(er_graph, values)
        for dtype in (np.int8, np.int32, np.uint8, np.uint64):
            result, path = closed_max_path(monkeypatch, er_graph, values.astype(dtype))
            assert path == "radix" and result.dtype == dtype
            assert np.array_equal(result, expected)

    def test_lrg_twin_equals_the_simulated_lrg(self, monkeypatch):
        from repro.baselines.jia_rajaraman_suel import lrg_dominating_set

        graph = nx.gnp_random_graph(120, 0.06, seed=8)
        paths: list[str] = []
        closed_max = BulkGraph.closed_max

        def spy(self, values, senders=None, edge_mask=None):
            result, path = closed_max_path(
                monkeypatch, self, values, closed_max, senders=senders,
                edge_mask=edge_mask,
            )
            paths.append(path)
            return result

        simulated = lrg_dominating_set(graph, seed=3)
        monkeypatch.setattr(BulkGraph, "closed_max", spy)
        vectorized = lrg_dominating_set(graph, seed=3, backend="vectorized")
        monkeypatch.setattr(BulkGraph, "closed_max", closed_max)
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.phases == vectorized.phases
        assert simulated.metrics.total_bits == vectorized.metrics.total_bits
        assert paths and set(paths) == {"radix"}


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


class TestLazyResults:
    def test_joined_sets_equal_the_simulated_ones(self):
        graph = nx.gnp_random_graph(60, 0.1, seed=5)
        x = approximate_fractional_mds(graph, k=2).x
        simulated = round_fractional_solution(graph, x, seed=3)
        for backend, shards in (("vectorized", None), ("sharded", 2)):
            def run():
                return round_fractional_solution(
                    graph, x, seed=3, backend=backend, shards=shards
                )

            # repr as the first read shows the frozensets.
            assert "joined_as_fallback=frozenset(" in repr(run())
            lazy = run()
            # Pickled before the first read, and read afterwards.
            clone = pickle.loads(pickle.dumps(lazy))
            for result in (clone, lazy, run()):
                assert result == simulated
                assert result.joined_randomly == simulated.joined_randomly
                assert result.joined_as_fallback == simulated.joined_as_fallback
                assert isinstance(result.joined_randomly, frozenset)
            assert pickle.loads(pickle.dumps(lazy)) == simulated

    def test_results_do_not_keep_the_graph_alive(self):
        graph = bulk_erdos_renyi_graph(2_000, 6 / 1_999, seed=4)
        report = solve("kuhn-wattenhofer", graph, seed=4, k=2, backend="vectorized")
        rounding = report.raw.rounding
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        assert alive() is None
        assert (
            rounding.joined_randomly | rounding.joined_as_fallback
            == report.dominating_set
        )


class TestLabelsAndRow:
    def test_unlabelled_graphs_share_their_labels(self):
        first = bulk_erdos_renyi_graph(500, 0.01, seed=1)
        second = BulkGraph.from_edges(500, np.array([0]), np.array([1]))
        assert first.nodes is second.nodes is range_labels(500)
        assert first.nodes == tuple(range(500))
        labelled = BulkGraph.from_graph(nx.path_graph(500))
        assert labelled.nodes == first.nodes

    def test_pipeline_and_checks_leave_row_unbuilt(self):
        graph = bulk_erdos_renyi_graph(20_000, 10 / 19_999, seed=2)
        report = solve("kuhn-wattenhofer", graph, seed=2, k=2)
        assert is_dominating_set(graph, report.dominating_set)
        assert 0 < lemma1_lower_bound(graph) <= report.size
        assert graph._row is None
        expected = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
        assert np.array_equal(graph.row, expected)
        assert graph.row is graph.row

    def test_member_mask(self):
        bulk = BulkGraph.from_graph(nx.relabel_nodes(nx.path_graph(5), str))
        assert bulk.member_mask({"1", "3"}).tolist() == [False, True, False, True, False]
        assert bulk.member_mask(iter(["4", "4"])).tolist() == [False] * 4 + [True]
        assert not bulk.member_mask(frozenset()).any()
        with pytest.raises(ValueError, match=r"not in the graph: \['7', 'x'\]"):
            bulk.member_mask(["1", "x", "7"])
        assert bulk.member_mask({"0", "x"}, ignore_unknown=True).tolist() == [
            True, False, False, False, False,
        ]

    def test_interned_labels_are_their_own_positions(self):
        bulk = BulkGraph.from_edges(6, np.array([0, 2]), np.array([1, 3]))
        # The same labels in a tuple of their own go through the label dict.
        twin = BulkGraph.from_edges(
            6, np.array([0, 2]), np.array([1, 3]), nodes=tuple(range(6))
        )
        assert bulk.nodes is range_labels(6) and twin.nodes is not bulk.nodes
        for candidate in ({1, 4}, [5, 5, 0], frozenset(), (3,)):
            assert bulk.member_mask(candidate).tolist() == (
                twin.member_mask(candidate).tolist()
            )
        assert np.flatnonzero(bulk.member_mask(iter([2, 2]))).tolist() == [2]
        assert bulk.index_of([4, 0, 4]).tolist() == [4, 0, 4]
        assert bulk.index_of(iter([1])).tolist() == [1]
        assert bulk._index is None  # no label dict for plain ints in range
        # True, 1.0 and numpy ints hash like 1, and the dict answers them.
        for candidate in ([True], [1.0, 3], [np.int64(3)], {0, True}):
            assert bulk.member_mask(candidate).tolist() == (
                twin.member_mask(candidate).tolist()
            )
            assert bulk.index_of(candidate).tolist() == (
                twin.index_of(candidate).tolist()
            )
        # Anything else takes the dict path too, with its errors.
        for candidate in ([6], [-1], [2**70], ["1"], [1.5], [1, 7]):
            with pytest.raises(ValueError) as fast:
                bulk.member_mask(candidate)
            with pytest.raises(ValueError) as reference:
                twin.member_mask(candidate)
            assert str(fast.value) == str(reference.value)
            assert bulk.member_mask(candidate, ignore_unknown=True).tolist() == (
                twin.member_mask(candidate, ignore_unknown=True).tolist()
            )
            with pytest.raises(KeyError):
                bulk.index_of(candidate)


class TestStoredLayout:
    def test_pipeline_and_checks_leave_the_int64_views_unbuilt(self):
        graph = bulk_erdos_renyi_graph(20_000, 10 / 19_999, seed=2)
        report = solve("kuhn-wattenhofer", graph, seed=2, k=2)
        assert is_dominating_set(graph, report.dominating_set)
        assert 0 < lemma1_lower_bound(graph) <= report.size
        assert graph._indptr64 is None and graph._col64 is None
        assert graph._indptr.dtype == graph._col.dtype == np.int32
        assert np.array_equal(graph.col, graph._col)

    def test_float_pull_reads_the_stored_columns(self, er_graph):
        # A strided float vector and a non-finite value take the pull; the
        # gather through the int32 columns equals the int64 take.
        values = np.random.default_rng(4).random(2 * er_graph.n)[::2]
        values[7] = -np.inf
        reference = values.copy()
        nonempty = er_graph.degrees > 0
        gathered = values[er_graph.col]
        reference[nonempty] = np.maximum(
            values[nonempty],
            np.maximum.reduceat(gathered, er_graph.indptr[:-1][nonempty]),
        )
        assert np.array_equal(bits(er_graph.closed_max(values)), bits(reference))


class TestFrontierRows:
    """``neighbor_sum(..., rows=...)`` sums only the listed rows; each sum
    must equal the full pass's, masked or not, on its gather and full
    paths."""

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


class TestOneThread:
    def test_available_cpu_count_lives_here(self):
        from repro.simulator import sharded

        assert sharded.available_cpu_count is bulk_module.available_cpu_count
        assert bulk_module.available_cpu_count() >= 1

    def test_large_passes_start_no_thread(self):
        # Every CSR pass is one serial call: a fresh process that builds and
        # solves an instance of more than 2¹⁹ entries starts no thread.
        script = (
            "import threading\n"
            "from repro.api import solve\n"
            "from repro.graphs.bulk import bulk_erdos_renyi_graph\n"
            "before = threading.active_count()\n"
            "graph = bulk_erdos_renyi_graph(60_000, 10 / 59_999, seed=1)\n"
            "assert graph.col.size >= 1 << 19, graph.col.size\n"
            "solve('kuhn-wattenhofer', graph, k=2)\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
        )
        package = os.path.dirname(os.path.dirname(bulk_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()


def _operators_in_child(bulk: BulkGraph, values, expected_sum, expected_max) -> None:
    same = np.array_equal(
        bits(bulk.neighbor_sum(values)), bits(expected_sum)
    ) and np.array_equal(bulk.closed_max(bulk.degrees), expected_max)
    os._exit(0 if same else 3)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_runs_the_operators(er_graph):
    # The child forks while the parent holds the all-ones buffer's lock (as
    # a thread growing it would); its first adjacency takes a fresh lock.
    values = np.random.default_rng(8).random(er_graph.n)
    twin = BulkGraph(er_graph.indptr, er_graph.col)
    expected = (twin.neighbor_sum(values), twin.closed_max(twin.degrees))
    assert er_graph._adjacency is None
    child = multiprocessing.get_context("fork").Process(
        target=_operators_in_child, args=(er_graph, values, *expected)
    )
    with bulk_module._ones_lock:
        child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
        pytest.fail("a forked child hung on the operators")
    assert child.exitcode == 0


@pytest.fixture
def fresh_ones(monkeypatch):
    """An empty all-ones buffer of the test's own."""
    empty = np.ones(0)
    empty.flags.writeable = False
    monkeypatch.setattr(bulk_module, "_ones", empty)


def check_operators(bulk: BulkGraph, seed: int) -> bool:
    """Sums and counts on ``bulk`` equal the bincount references bitwise."""
    rng = np.random.default_rng(seed)
    values = rng.random(bulk.n)
    flags = rng.random(bulk.n) < 0.5
    return np.array_equal(
        bits(bulk.neighbor_sum(values)), bits(bincount_sum(bulk, values))
    ) and np.array_equal(bulk.neighbor_count(flags), bincount_count(bulk, flags))


class TestSharedOnesBuffer:
    def test_buffer_is_read_only(self, fresh_ones):
        ones = bulk_module._all_ones(5)
        assert ones.tolist() == [1.0] * 5 and not ones.flags.writeable
        with pytest.raises(ValueError):
            ones[0] = 2.0
        graph = bulk_erdos_renyi_graph(200, 0.05, seed=1)
        assert np.shares_memory(graph.adjacency.data, bulk_module._ones)
        with pytest.raises(ValueError):
            graph.adjacency.data[0] = 0.0

    def test_small_graphs_after_the_buffer_grew(self, fresh_ones):
        small = bulk_erdos_renyi_graph(300, 0.02, seed=1)
        assert check_operators(small, 0)
        large = bulk_erdos_renyi_graph(3000, 0.01, seed=2)
        assert check_operators(large, 1)
        # Grown to exactly the largest entry count, not doubled.
        assert bulk_module._ones.size == large._col.size > small._col.size
        later = bulk_erdos_renyi_graph(300, 0.02, seed=3)
        assert np.shares_memory(later.adjacency.data, bulk_module._ones)
        assert later.adjacency.data.size == later._col.size
        for seed, graph in enumerate((small, later, large)):
            assert check_operators(graph, seed + 2)

    def test_concurrent_first_reads_grow_it_safely(self, fresh_ones):
        graphs = [
            bulk_erdos_renyi_graph(400 * (i + 1), 8 / (400 * (i + 1)), seed=i)
            for i in range(8)
        ]
        start = threading.Barrier(len(graphs))
        seen: list[bool] = []

        def first_read(graph, seed):
            start.wait(timeout=30)
            seen.append(check_operators(graph, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=first_read, args=(graph, seed))
                for seed, graph in enumerate(graphs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [True] * len(graphs)
        assert bulk_module._ones.size == max(g._col.size for g in graphs)

    def test_two_service_workers_build_adjacencies_concurrently(self, fresh_ones):
        import asyncio

        from repro.service import SolveService

        sizes = [(3000, 1), (6000, 2), (1500, 3), (4500, 4)]

        def build(n, seed):
            return bulk_erdos_renyi_graph(n, 8 / (n - 1), seed=seed)

        async def run():
            async with SolveService(workers=2) as service:
                return await asyncio.gather(
                    *(
                        service.solve("kuhn-wattenhofer", build(n, seed), seed=seed, k=2)
                        for n, seed in sizes
                    )
                )

        reports = asyncio.run(run())
        for (n, seed), report in zip(sizes, reports):
            direct = solve("kuhn-wattenhofer", build(n, seed), seed=seed, k=2)
            assert report.dominating_set == direct.dominating_set
            assert (report.rounds, report.messages) == (direct.rounds, direct.messages)


def broadcast_cases() -> list[np.ndarray]:
    edgeless = BulkGraph.from_edges(4, np.empty(0, dtype=np.int64), np.empty(0))
    return [
        star(6).degrees,  # isolated nodes beside the hub
        edgeless.degrees,
        np.zeros(0, dtype=np.int64),  # a shard slab that owns no rows
        bulk_erdos_renyi_graph(300, 0.03, seed=3).degrees,
    ]


class TestPayloadAccounting:
    def test_int_payload_bits_match_the_per_message_sizes(self):
        powers = [2**j + offset for j in range(53) for offset in (-1, 0, 1)]
        signed = np.array([0, *powers, *(-p for p in powers)], dtype=np.int64)
        table = signed[(signed >= 0) & (signed < 1 << 16)]
        for values in (
            signed,
            table,  # every value in the table
            np.array([(1 << 16) - 1, 1 << 16]),  # one value beyond it
            np.array([3, -3]),
            np.array([0]),
            np.array([], dtype=np.int64),
        ):
            expected = [payload_size_bits(int(value)) for value in values]
            assert int_payload_bits(values).tolist() == expected

    @pytest.mark.parametrize("degrees", broadcast_cases())
    def test_broadcast_fast_path_equals_the_masked_path(self, degrees):
        rng = np.random.default_rng(0)
        payloads = [
            BOOL_PAYLOAD_BITS,
            int_payload_bits(rng.integers(0, 40, degrees.size)),
            FLOAT_PAYLOAD_BITS,
            int_payload_bits(rng.integers(0, 9, degrees.size)),
        ]
        fast, general = BulkMetricsBuilder(degrees), BulkMetricsBuilder(degrees)
        for bits in payloads:
            fast.record_exchange(bits)
            general.record_exchange(bits, senders=np.ones(degrees.size, dtype=bool))
        nodes = tuple(range(degrees.size))
        built, reference = fast.build(nodes), general.build(nodes)
        assert built.rounds == reference.rounds
        assert built.messages_per_node == reference.messages_per_node
        assert built.bits_per_node == reference.bits_per_node
