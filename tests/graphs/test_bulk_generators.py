"""Tests for the direct-to-CSR generators and the CSR BulkGraph builders."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.bulk import (
    bulk_caterpillar_graph,
    bulk_erdos_renyi_graph,
    bulk_graph_suite,
    bulk_grid_graph,
    bulk_unit_disk_graph,
)
from repro.graphs.generators import (
    caterpillar_graph,
    graph_suite,
    grid_graph,
    random_unit_disk_graph,
)
from repro.simulator.bulk import BulkGraph


def assert_same_csr(a: BulkGraph, b: BulkGraph) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.col, b.col)


def set_reference_csr(n, u, v) -> tuple[list[int], list[int]]:
    """The CSR of an undirected edge list, built from Python sets."""
    neighbors = [set() for _ in range(n)]
    for a, b in zip(u, v):
        neighbors[a].add(b)
        neighbors[b].add(a)
    indptr = [0]
    col: list[int] = []
    for row in neighbors:
        col.extend(sorted(row))
        indptr.append(len(col))
    return indptr, col


def csr_digest(bulk: BulkGraph) -> str:
    digest = hashlib.sha256(bulk.indptr.astype("<i8").tobytes())
    digest.update(bulk.col.astype("<i8").tobytes())
    return digest.hexdigest()[:16]


@st.composite
def edge_lists(draw):
    """Edge lists with duplicates in both orientations and isolated nodes."""
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=120,
        )
    )
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    flipped = [(b, a) for a, b in repeats]
    edges = draw(st.permutations(pairs + repeats + flipped))
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return n, u, v


class TestFromEdges:
    def test_matches_from_graph(self):
        graph = grid_graph(5, 6)
        u, v = zip(*graph.edges())
        built = BulkGraph.from_edges(
            graph.number_of_nodes(), np.array(u), np.array(v)
        )
        assert_same_csr(built, BulkGraph.from_graph(graph))

    def test_deduplicates_and_symmetrizes(self):
        built = BulkGraph.from_edges(3, np.array([0, 1, 0]), np.array([1, 0, 2]))
        assert built.number_of_edges == 2
        assert built.degrees.tolist() == [2, 1, 1]

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loops"):
            BulkGraph.from_edges(3, np.array([1]), np.array([1]))

    def test_constructor_rejects_asymmetric_csr(self):
        # Edge 0→1 without the reverse entry.
        with pytest.raises(ValueError, match="symmetric"):
            BulkGraph(np.array([0, 1, 1]), np.array([1]))

    def test_constructor_rejects_unsorted_rows(self):
        # Both directions present but row 0 lists neighbours out of order.
        with pytest.raises(ValueError, match="ascending"):
            BulkGraph(
                np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0])
            )

    def test_constructor_rejects_duplicate_entries(self):
        with pytest.raises(ValueError, match="ascending"):
            BulkGraph(np.array([0, 2, 4]), np.array([1, 1, 0, 0]))

    def test_ascending_is_checked_before_symmetry(self):
        # Row 1 is out of order *and* 1→2 has no reverse entry.
        with pytest.raises(ValueError, match="ascending"):
            BulkGraph(np.array([0, 1, 3, 3]), np.array([1, 2, 0]))

    def test_rows_may_descend_across_a_row_boundary(self):
        # Row 0 ends with 3 and row 1 starts with 0: both rows ascend.
        bulk = BulkGraph(np.array([0, 2, 4, 5, 8]), np.array([1, 3, 0, 3, 3, 0, 1, 2]))
        assert bulk.number_of_edges == 4

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 5), max_size=5), min_size=1, max_size=6
        )
    )
    def test_ascending_check_matches_a_per_row_reference(self, rows):
        n = len(rows)
        rows = [[c % n for c in row] for row in rows]
        indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
        col = np.array([c for row in rows for c in row], dtype=np.int64)
        loops = any(i in row for i, row in enumerate(rows))
        ascending = all(
            all(a < b for a, b in zip(row, row[1:])) for row in rows
        )
        edges = {(i, c) for i, row in enumerate(rows) for c in row}
        symmetric = all((c, i) in edges for i, c in edges)
        if loops:
            message = "self loops"
        elif not ascending:
            message = "ascending"
        elif not symmetric:
            message = "symmetric"
        else:
            assert BulkGraph(indptr, col).n == n
            return
        with pytest.raises(ValueError, match=message):
            BulkGraph(indptr, col)

    def test_feasibility_matches_dense_check(self):
        from repro.lp.feasibility import check_primal_feasible
        from repro.lp.formulation import build_lp

        graph = grid_graph(4, 4)
        bulk = BulkGraph.from_graph(graph)
        lp = build_lp(graph)
        for x in (
            {node: 1.0 for node in graph.nodes()},
            {node: -1e-12 if node == 0 else 1.0 for node in graph.nodes()},
            {node: 0.1 for node in graph.nodes()},
            {node: -1.0 for node in graph.nodes()},
        ):
            vector = np.array([x[node] for node in bulk.nodes])
            dense_feasible, dense_violation = check_primal_feasible(
                lp, x, tolerance=1e-7, return_violation=True
            )
            csr_feasible, csr_violation = bulk.check_lp_feasible(
                vector, tolerance=1e-7
            )
            assert csr_feasible == dense_feasible
            assert csr_violation == pytest.approx(dense_violation)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="index nodes"):
            BulkGraph.from_edges(3, np.array([0]), np.array([5]))

    def test_empty_edge_set(self):
        built = BulkGraph.from_edges(4, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert built.n == 4
        assert built.number_of_edges == 0

    def test_roundtrip_networkx(self):
        graph = caterpillar_graph(6, 2)
        bulk = BulkGraph.from_graph(graph)
        back = bulk.to_networkx()
        assert set(back.nodes()) == set(graph.nodes())
        assert set(map(frozenset, back.edges())) == set(
            map(frozenset, graph.edges())
        )


class TestFromEdgesMatchesSetReference:
    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_random_edge_lists(self, case):
        n, u, v = case
        indptr, col = set_reference_csr(n, u.tolist(), v.tolist())
        built = BulkGraph.from_edges(n, u, v)
        assert built.indptr.dtype == np.int64 and built.col.dtype == np.int64
        assert built.indptr.tolist() == indptr
        assert built.col.tolist() == col

    def test_empty_edge_list(self):
        empty = np.array([], dtype=np.int64)
        built = BulkGraph.from_edges(5, empty, empty)
        assert built.indptr.tolist() == [0] * 6
        assert built.col.tolist() == []

    @pytest.mark.parametrize(
        "build",
        [
            lambda: bulk_erdos_renyi_graph(3000, 0.003, seed=5),
            lambda: bulk_unit_disk_graph(500, 0.08, seed=11),
            lambda: bulk_grid_graph(7, 9),
            lambda: bulk_caterpillar_graph(12, 3),
        ],
        ids=["erdos-renyi", "unit-disk", "grid", "caterpillar"],
    )
    def test_generators_match_set_reference(self, build, monkeypatch):
        calls = []
        from_edges = BulkGraph.from_edges.__func__

        def recording(cls, n, u, v, nodes=None):
            calls.append((n, np.asarray(u).tolist(), np.asarray(v).tolist()))
            return from_edges(cls, n, u, v, nodes)

        monkeypatch.setattr(BulkGraph, "from_edges", classmethod(recording))
        built = build()
        (n, u, v), = calls
        assert (built.indptr.tolist(), built.col.tolist()) == set_reference_csr(n, u, v)


#: sha256 prefixes of ``indptr`` and ``col`` (little-endian int64) of the
#: generators' CSR for fixed seeds, recorded with ``np.unique``-based
#: deduplication; the sort-based dedupe must reproduce them byte for byte.
PINNED_CSR_DIGESTS = {
    "erdos_renyi_n2000": "42ee264c53d8c45a",
    "unit_disk_n2000": "9d015c09a3b23bd2",
    "grid_45x45": "86f7787dc71c48c6",
    "caterpillar_500x3": "c107a9ea6067cb8f",
    "erdos_renyi_n3000": "86e48bd884ce54f0",
    "unit_disk_n500": "619a982898421cd4",
    "erdos_renyi_complete_n30": "88f4965f33193965",
    "erdos_renyi_empty_n30": "b3ab6982980fddf4",
}


def test_generators_byte_identical_to_pinned_csr():
    built = dict(bulk_graph_suite("large", seed=3))
    built["erdos_renyi_n3000"] = bulk_erdos_renyi_graph(3000, 0.003, seed=5)
    built["unit_disk_n500"] = bulk_unit_disk_graph(500, 0.08, seed=11)
    built["erdos_renyi_complete_n30"] = bulk_erdos_renyi_graph(30, 1.0)
    built["erdos_renyi_empty_n30"] = bulk_erdos_renyi_graph(30, 0.0)
    assert {name: csr_digest(g) for name, g in built.items()} == PINNED_CSR_DIGESTS


class TestDirectGenerators:
    def test_unit_disk_matches_networkx_generator(self):
        for seed in (0, 3, 11):
            bulk = bulk_unit_disk_graph(250, radius=0.1, seed=seed)
            reference = BulkGraph.from_graph(
                random_unit_disk_graph(250, radius=0.1, seed=seed)
            )
            assert_same_csr(bulk, reference)

    def test_unit_disk_exposes_positions(self):
        bulk = bulk_unit_disk_graph(50, radius=0.2, seed=1)
        assert bulk.positions.shape == (50, 2)

    def test_grid_matches_networkx_generator(self):
        assert_same_csr(
            bulk_grid_graph(7, 9), BulkGraph.from_graph(grid_graph(7, 9))
        )
        assert_same_csr(
            bulk_grid_graph(1, 4), BulkGraph.from_graph(grid_graph(1, 4))
        )

    def test_caterpillar_matches_networkx_generator(self):
        assert_same_csr(
            bulk_caterpillar_graph(12, 3),
            BulkGraph.from_graph(caterpillar_graph(12, 3)),
        )

    def test_erdos_renyi_deterministic_per_seed(self):
        a = bulk_erdos_renyi_graph(500, 0.01, seed=5)
        b = bulk_erdos_renyi_graph(500, 0.01, seed=5)
        assert_same_csr(a, b)
        c = bulk_erdos_renyi_graph(500, 0.01, seed=6)
        assert not np.array_equal(a.col, c.col)

    def test_erdos_renyi_edge_count_near_expectation(self):
        n, p = 2000, 0.005
        bulk = bulk_erdos_renyi_graph(n, p, seed=0)
        expected = p * n * (n - 1) / 2
        assert 0.85 * expected <= bulk.number_of_edges <= 1.15 * expected

    def test_erdos_renyi_degenerate_probabilities(self):
        assert bulk_erdos_renyi_graph(10, 0.0).number_of_edges == 0
        complete = bulk_erdos_renyi_graph(5, 1.0)
        assert complete.number_of_edges == 10
        assert complete.degrees.tolist() == [4] * 5

    def test_erdos_renyi_validation(self):
        with pytest.raises(ValueError):
            bulk_erdos_renyi_graph(0, 0.5)
        with pytest.raises(ValueError):
            bulk_erdos_renyi_graph(10, 1.5)


class TestBulkSuites:
    def test_large_scale_instances(self):
        suite = bulk_graph_suite("large", seed=0)
        assert all(isinstance(g, BulkGraph) for g in suite.values())
        assert all(g.n >= 1500 for g in suite.values())

    def test_xlarge_scale_instances(self):
        suite = bulk_graph_suite("xlarge", seed=0)
        assert all(isinstance(g, BulkGraph) for g in suite.values())
        assert all(g.n >= 20000 for g in suite.values())

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            bulk_graph_suite("galactic")

    def test_graph_suite_offers_xlarge(self):
        suite = graph_suite("xlarge", seed=0)
        assert all(isinstance(g, BulkGraph) for g in suite.values())
        assert set(suite) == set(bulk_graph_suite("xlarge", seed=0))
