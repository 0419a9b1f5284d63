"""Tests for the direct-to-CSR generators and the CSR BulkGraph builders."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.bulk as graphs_bulk
import repro.simulator.bulk as bulk_module
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


def assert_same_fields(built: BulkGraph, validated: BulkGraph) -> None:
    """Every field the builders assemble, array for array."""
    assert built.n == validated.n and built.nodes == validated.nodes
    for name in ("indptr", "col", "row", "degrees", "_nonempty", "_nonempty_starts"):
        ours, theirs = getattr(built, name), getattr(validated, name)
        assert ours.dtype == theirs.dtype == np.int64, name
        assert np.array_equal(ours, theirs), name


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


def redrawn_er_edges(n: int, p: float, seed) -> tuple[list[int], list[int]]:
    """G(n, p)'s edges for ``seed``, redrawn without the generator's code.

    The same batches of ``rng.geometric`` gaps from the same stream, summed
    as Python ints (which do not wrap), and each pair position below
    n(n−1)/2 decoded to its pair (u, v) by walking the rows.
    """
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return [], []
    rng = np.random.default_rng(seed)
    batch = max(1024, int(1.1 * p * total) + 16)
    positions, position = [], -1
    while position < total - 1:
        for gap in rng.geometric(p, batch).tolist():
            position += gap
            if position < total:
                positions.append(position)
    u: list[int] = []
    v: list[int] = []
    row, first = 0, 0  # the row and its first pair position
    for t in positions:
        while t >= first + n - 1 - row:
            first += n - 1 - row
            row += 1
        u.append(row)
        v.append(row + 1 + t - first)
    return u, v


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
        # from_edges skips __init__'s checks; they would have passed.
        assert_same_fields(built, BulkGraph(built.indptr, built.col))

    def test_empty_edge_list(self):
        empty = np.array([], dtype=np.int64)
        built = BulkGraph.from_edges(5, empty, empty)
        assert built.indptr.tolist() == [0] * 6
        assert built.col.tolist() == []

    @pytest.mark.parametrize(
        "build,redraw",
        [
            (
                lambda: bulk_erdos_renyi_graph(3000, 0.003, seed=5),
                lambda: (3000, *redrawn_er_edges(3000, 0.003, 5)),
            ),
            (lambda: bulk_unit_disk_graph(500, 0.08, seed=11), None),
            (lambda: bulk_grid_graph(7, 9), None),
            (lambda: bulk_caterpillar_graph(12, 3), None),
        ],
        ids=["erdos-renyi", "unit-disk", "grid", "caterpillar"],
    )
    def test_generators_match_set_reference(self, build, redraw, monkeypatch):
        # The generators hand their edges to from_edges: the outermost call
        # is the input.  The ER one builds its CSR from the sampled pairs,
        # so its input is the independent redraw of the same sample.
        calls = []
        from_edges = BulkGraph.from_edges.__func__

        def recording(cls, n, u, v, nodes=None):
            calls.append((n, np.asarray(u).tolist(), np.asarray(v).tolist()))
            return from_edges(cls, n, u, v, nodes)

        monkeypatch.setattr(BulkGraph, "from_edges", classmethod(recording))
        built = build()
        n, u, v = calls[0] if redraw is None else redraw()
        assert (built.indptr.tolist(), built.col.tolist()) == set_reference_csr(n, u, v)


class TestBuildersPassTheValidatingConstructor:
    """from_graph goes through from_edges, which skips ``__init__``'s
    adjacency checks: the validating constructor must accept every CSR it
    assembles and rebuild it field for field."""

    @settings(max_examples=150, deadline=None)
    @given(
        edge_lists(),
        st.sampled_from(["str", "tuple"]),
        st.sampled_from([nx.Graph, nx.MultiGraph]),
        st.randoms(use_true_random=False),
    )
    def test_from_graph(self, case, label_kind, graph_class, rng):
        n, u, v = case
        # String labels sort differently from their numbers ("v10" < "v2"),
        # tuple labels by their first field; nodes are inserted shuffled, so
        # the adjacency dicts come in neither label nor position order.  A
        # multigraph keeps the repeated edges as parallel edges.
        if label_kind == "str":
            labels = [f"v{i}" for i in range(n)]
        else:
            labels = [(i % 3, f"v{i}") for i in range(n)]
        graph = graph_class()
        graph.add_nodes_from(rng.sample(labels, n))
        graph.add_edges_from((labels[a], labels[b]) for a, b in zip(u, v))
        built = BulkGraph.from_graph(graph)
        assert built.nodes == tuple(sorted(labels))
        assert_same_fields(built, BulkGraph(built.indptr, built.col, built.nodes))
        position = {label: i for i, label in enumerate(built.nodes)}
        relabel = np.array([position[label] for label in labels], dtype=np.int64)
        assert (built.indptr.tolist(), built.col.tolist()) == set_reference_csr(
            n, relabel[u].tolist(), relabel[v].tolist()
        )

    @pytest.mark.parametrize(
        "n,p,seed",
        [(1, 0.5, 0), (2, 1.0, 0), (30, 1.0, 0), (500, 0.02, 9), (3000, 0.003, 5)],
    )
    def test_erdos_renyi(self, n, p, seed):
        # The generator's entries skip from_edges' checks as well.
        built = bulk_erdos_renyi_graph(n, p, seed=seed)
        assert_same_fields(built, BulkGraph(built.indptr, built.col))

    def test_from_graph_keeps_its_errors(self):
        with pytest.raises(ValueError, match="at least one node"):
            BulkGraph.from_graph(nx.Graph())
        with pytest.raises(ValueError, match="self loops"):
            BulkGraph.from_graph(nx.Graph([(0, 1), (2, 2)]))
        with pytest.raises(ValueError, match="self loops"):
            BulkGraph.from_graph(nx.MultiGraph([(0, 1), (1, 1), (1, 1)]))

    def test_from_graph_symmetrises_a_digraph(self):
        directed = nx.DiGraph([(2, 0), (0, 1), (1, 0)])
        assert_same_csr(
            BulkGraph.from_graph(directed),
            BulkGraph.from_graph(directed.to_undirected()),
        )

    def test_from_edges_checks_the_node_labels(self):
        with pytest.raises(ValueError, match="one identifier per CSR row"):
            BulkGraph.from_edges(3, np.array([0]), np.array([1]), nodes=("a", "b"))

    def test_edge_order_orientation_and_duplicates_do_not_matter(self):
        canonical = bulk_erdos_renyi_graph(500, 0.02, seed=9)
        upper = canonical.row < canonical.col
        u, v = canonical.row[upper], canonical.col[upper]
        rng = np.random.default_rng(0)
        order = rng.permutation(u.size)
        flip = rng.random(u.size) < 0.5
        variants = {
            "canonical": (u, v),
            "shuffled": (u[order], v[order]),
            "flipped": (v, u),
            "mixed": (np.where(flip, v, u)[order], np.where(flip, u, v)[order]),
            "duplicated": (
                np.concatenate((u, v, u[order])), np.concatenate((v, u, v[order]))
            ),
            "int32": (u.astype(np.int32), v.astype(np.int32)),
        }
        for name, (a, b) in variants.items():
            built = BulkGraph.from_edges(canonical.n, a, b)
            assert built.indptr.dtype == built.col.dtype == np.int64, name
            assert_same_fields(built, canonical)


@pytest.fixture
def own_row_pool(monkeypatch):
    """Two usable CPUs and a worker pool of the test's own."""
    monkeypatch.setattr(bulk_module, "_row_pool", None)
    monkeypatch.setattr(bulk_module, "available_cpu_count", lambda: 2)
    yield
    if bulk_module._row_pool is not None:
        bulk_module._row_pool.shutdown()


@pytest.fixture
def row_split(monkeypatch, own_row_pool):
    """Every CSR pass split in two."""
    monkeypatch.setattr(bulk_module, "_PARALLEL_MIN_ENTRIES", 0)


def split_passes(monkeypatch) -> list[int]:
    """Record how many ranges each pass of the builder runs over."""
    ranges = []
    over_ranges = graphs_bulk._over_ranges

    def recording(halves, kernel):
        ranges.append(len(halves))
        over_ranges(halves, kernel)

    # The row search runs through graphs.bulk's import, the transposes and
    # the merge through simulator.bulk's.
    monkeypatch.setattr(graphs_bulk, "_over_ranges", recording)
    monkeypatch.setattr(bulk_module, "_over_ranges", recording)
    return ranges


class TestErdosRenyiBuilder:
    """The exponential-draw gaps and the two-triangle CSR assembly."""

    @pytest.mark.parametrize(
        "p",
        [1e-5, 1e-3, 0.01, 0.1, 0.3, np.nextafter(1 / 3, 0), 1 / 3, 0.5, 0.9],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_gaps_equal_numpy_geometric(self, p, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 1000, 4096):
            gaps = graphs_bulk._geometric_gaps(ours, p, size, 1 << 62)
            assert gaps.dtype == np.int64
            assert np.array_equal(gaps, theirs.geometric(p, size))
        # Both consumed the same stream.
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("cap", [10, 1 << 20, 1 << 62])
    @pytest.mark.parametrize("p", [1e-19, 1e-300, 5e-324])
    def test_gaps_are_capped_where_numpy_saturates(self, p, cap):
        # ceil(−E / log1p(−p)) of 2⁶³ or more (or infinity) is INT64_MAX
        # in numpy; here every such gap is the cap.
        ours, theirs = np.random.default_rng(2), np.random.default_rng(2)
        reference = theirs.geometric(p, 2000)
        assert np.any(reference == np.iinfo(np.int64).max)
        gaps = graphs_bulk._geometric_gaps(ours, p, 2000, cap)
        assert np.array_equal(gaps, np.minimum(reference, cap))

    def test_gaps_below_a_cap_are_kept(self):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        gaps = graphs_bulk._geometric_gaps(ours, 1e-4, 5000, 20_000)
        reference = theirs.geometric(1e-4, 5000)
        assert 0 < np.count_nonzero(reference > 20_000) < reference.size
        assert np.array_equal(gaps, np.minimum(reference, 20_000))

    def check_against_redraw(self, n, p, seed, sets=True, built=None) -> BulkGraph:
        if built is None:
            built = bulk_erdos_renyi_graph(n, p, seed=seed)
        u, v = redrawn_er_edges(n, p, seed)
        assert_same_fields(built, BulkGraph.from_edges(n, np.array(u), np.array(v)))
        if sets:
            assert (built.indptr.tolist(), built.col.tolist()) == set_reference_csr(
                n, u, v
            )
        # The assembly skips __init__'s checks; they would have passed.
        assert_same_fields(built, BulkGraph(built.indptr, built.col))
        return built

    @pytest.mark.parametrize(
        "n,p,seed",
        [(50, 0.1, 1), (1000, 0.01, 2), (600, 0.4, 3), (20_000, 10 / 19_999, 4)],
    )
    def test_serial_build_matches_the_redraw(self, monkeypatch, n, p, seed):
        passes = split_passes(monkeypatch)
        built = bulk_erdos_renyi_graph(n, p, seed=seed)
        assert passes == [1, 1, 1, 1]  # search, upper columns, transposes, merge
        self.check_against_redraw(n, p, seed, sets=n <= 1000, built=built)

    @pytest.mark.parametrize(
        "n,p,seed", [(2, 1.0, 0), (50, 0.1, 1), (1000, 0.01, 2), (600, 0.4, 3)]
    )
    def test_forced_split_matches_the_redraw(self, monkeypatch, row_split, n, p, seed):
        passes = split_passes(monkeypatch)
        built = bulk_erdos_renyi_graph(n, p, seed=seed)
        assert passes == [2, 2, 2, 2]
        self.check_against_redraw(n, p, seed, built=built)

    def test_split_above_the_threshold_matches_the_redraw(
        self, monkeypatch, own_row_pool
    ):
        # m ≥ _PARALLEL_MIN_ENTRIES: every pass splits at its own size.
        passes = split_passes(monkeypatch)
        built = bulk_erdos_renyi_graph(100_000, 11 / 99_999, seed=6)
        assert built.number_of_edges >= bulk_module._PARALLEL_MIN_ENTRIES
        assert passes == [2, 2, 2, 2]
        self.check_against_redraw(100_000, 11 / 99_999, 6, sets=False, built=built)

    @pytest.mark.parametrize(
        "n,p,seed",
        [(1, 0.5, 0), (1, 1.0, 0), (2, 0.0, 0), (2, 0.5, 0), (2, 0.5, 1),
         (2, 1.0, 0), (30, 0.0, 0), (30, 1.0, 0), (7, 0.999, 3)],
    )
    def test_edge_cases_match_the_redraw(self, n, p, seed):
        self.check_against_redraw(n, p, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 60),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_random_builds_match_the_redraw(self, n, p, seed, split):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if split:
                monkeypatch.setattr(bulk_module, "_PARALLEL_MIN_ENTRIES", 0)
                monkeypatch.setattr(bulk_module, "available_cpu_count", lambda: 2)
            self.check_against_redraw(n, p, seed)

    def test_multi_batch_draw_matches_the_redraw(self, monkeypatch):
        # This seed's first batch of 1116 gaps stops short of the pair space.
        batches = []
        geometric_gaps = graphs_bulk._geometric_gaps

        def counting(rng, p, size, cap):
            batches.append(size)
            return geometric_gaps(rng, p, size, cap)

        monkeypatch.setattr(graphs_bulk, "_geometric_gaps", counting)
        self.check_against_redraw(2000, 1 / 1999, 1514)
        assert len(batches) >= 2

    def test_tiny_p_does_not_wrap_the_positions(self):
        # Gaps at numpy's INT64_MAX (or near it) used to wrap the cumulative
        # sum into negative, unsorted positions that reached scipy
        # unchecked: a ValueError for seed 0, a segmentation fault over
        # more seeds.  The builds run in a child process for that reason.
        cases = [(1000, p, seed) for p in (1e-17, 1e-300, 5e-324) for seed in range(50)]
        cases += [(1000, 2e-6, seed) for seed in range(20)]
        script = (
            "import json, sys\n"
            "from repro.graphs.bulk import bulk_erdos_renyi_graph\n"
            "out = []\n"
            "for n, p, seed in json.loads(sys.argv[1]):\n"
            "    g = bulk_erdos_renyi_graph(n, p, seed=seed)\n"
            "    out.append([g.indptr.tolist(), g.col.tolist()])\n"
            "print(json.dumps(out))\n"
        )
        package = os.path.dirname(os.path.dirname(graphs_bulk.__file__))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
        result = subprocess.run(
            [sys.executable, "-c", script, json.dumps(cases)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        built = json.loads(result.stdout)
        assert len(built) == len(cases)
        for (n, p, seed), csr in zip(cases, built):
            assert tuple(csr) == set_reference_csr(n, *redrawn_er_edges(n, p, seed))
        assert any(csr[1] for csr in built)  # p = 2e-6 draws a few edges


#: sha256 prefixes of ``indptr`` and ``col`` (little-endian int64) of the
#: generators' CSR for fixed seeds, recorded with ``np.unique``-based
#: deduplication; the counting-sort builder must reproduce them byte for
#: byte.
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


def layout_digest(bulk: BulkGraph) -> str:
    """sha256 prefix of the public ``indptr``, ``col`` and ``degrees``."""
    digest = hashlib.sha256()
    for array in (bulk.indptr, bulk.col, bulk.degrees):
        assert array.dtype == np.int64
        digest.update(array.astype("<i8").tobytes())
    return digest.hexdigest()[:16]


def layout_builders() -> dict:
    """One graph from every way of building a :class:`BulkGraph`."""
    rng = np.random.default_rng(7)
    u, v = rng.integers(0, 300, (2, 2000))
    keep = u != v
    grid = bulk_grid_graph(6, 7)
    return {
        "erdos_renyi": lambda: bulk_erdos_renyi_graph(3000, 0.003, seed=5),
        "unit_disk": lambda: bulk_unit_disk_graph(500, 0.08, seed=11),
        "grid": lambda: bulk_grid_graph(45, 45),
        "caterpillar": lambda: bulk_caterpillar_graph(500, 3),
        "from_edges": lambda: BulkGraph.from_edges(300, u[keep], v[keep]),
        "from_graph": lambda: BulkGraph.from_graph(
            random_unit_disk_graph(400, 0.1, seed=2)
        ),
        "init": lambda: BulkGraph(grid.indptr.tolist(), grid.col.tolist()),
    }


#: ``layout_digest`` of each ``layout_builders`` graph, recorded while the
#: CSR was stored as int64 arrays: the one stored layout must give the
#: same public arrays byte for byte.
PINNED_LAYOUT_DIGESTS = {
    "erdos_renyi": "a6c6265eeac6302a",
    "unit_disk": "f21b17de875d6010",
    "grid": "ecc731ab303f0aa7",
    "caterpillar": "19bf81eb8472e116",
    "from_edges": "4916620d0855e988",
    "from_graph": "30541142c357c24a",
    "init": "900fb5d77dcee578",
}


class TestOneStoredLayout:
    """Each graph stores its CSR once, in scipy's index dtype; the public
    ``indptr`` / ``col`` are int64 views of it and the adjacency wraps it."""

    @pytest.mark.parametrize("name", sorted(PINNED_LAYOUT_DIGESTS))
    def test_public_arrays_are_int64_and_unchanged(self, name):
        bulk = layout_builders()[name]()
        assert bulk._indptr.dtype == bulk._col.dtype == np.int32
        assert bulk._nonempty_starts.dtype == np.int64
        assert layout_digest(bulk) == PINNED_LAYOUT_DIGESTS[name]
        assert np.array_equal(bulk.indptr, bulk._indptr)
        assert np.array_equal(bulk.col, bulk._col)
        assert bulk.indptr is bulk.indptr and bulk.col is bulk.col

    @pytest.mark.parametrize("name", sorted(PINNED_LAYOUT_DIGESTS))
    def test_adjacency_wraps_the_stored_arrays(self, name):
        bulk = layout_builders()[name]()
        adjacency = bulk.adjacency
        assert np.shares_memory(adjacency.indices, bulk._col)
        assert np.shares_memory(adjacency.indptr, bulk._indptr)
        assert adjacency.data.dtype == np.float64
        assert not adjacency.data.flags.writeable
        assert np.all(adjacency.data == 1.0)
        # Wrapping the stored arrays reads no int64 view.
        assert bulk._indptr64 is None or name == "init"
        assert bulk._col64 is None or name == "init"

    def test_constructor_keeps_the_callers_int64_arrays(self):
        grid = bulk_grid_graph(5, 4)
        indptr, col = grid.indptr.copy(), grid.col.copy()
        bulk = BulkGraph(indptr, col)
        assert bulk.indptr is indptr and bulk.col is col
        assert bulk._col.dtype == np.int32
        assert np.array_equal(bulk._col, col)
        assert_same_fields(
            BulkGraph(indptr.astype(np.int32), col.astype(np.int32)), bulk
        )

    def test_from_edges_assembles_its_upper_triangle(self, monkeypatch):
        # Sorted, deduplicated edges are the upper triangle in CSR order:
        # from_edges no longer sorts all 2m entries.
        def no_counting_sort(*args):
            raise AssertionError("from_edges ran the 2m-entry counting sort")

        monkeypatch.setattr(BulkGraph, "_from_entries", no_counting_sort)
        for name in ("unit_disk", "grid", "caterpillar", "from_edges"):
            bulk = layout_builders()[name]()
            assert layout_digest(bulk) == PINNED_LAYOUT_DIGESTS[name]

    @pytest.mark.parametrize(
        "n,entries,expected",
        [
            (1, 0, np.int32),
            (2**31 - 1, 2**31 - 1, np.int32),
            (2**31, 0, np.int64),
            (5, 2**31, np.int64),
            (2**40, 2**40, np.int64),
        ],
    )
    def test_index_dtype_rule(self, n, entries, expected):
        from scipy.sparse._sputils import get_index_dtype

        # The rule's inputs only: nothing of that size is allocated.
        assert bulk_module._index_dtype(n, entries) == expected
        assert get_index_dtype(maxval=max(n, entries)) == expected


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
