"""Graph-construction benchmark: grid-bucket hashing vs. the O(n²) scan.

PR 1 made the *algorithms* fast; after that the wall-clock of a sweep was
dominated by everything around them, starting with unit-disk construction
(the paper's motivating graph family).  This benchmark pins the tentpole
claims of the CSR-native substrate:

* grid-bucket unit-disk construction at n = 20 000 is ≥ 20× faster than the
  pairwise baseline with an edge-identical result,
* the direct-to-CSR generators build the whole ``"xlarge"`` suite
  (n ≥ 20 000 per instance) in seconds without per-edge Python objects, and
* the bucket-queue greedy matches the set-based greedy's output at a
  fraction of the cost, keeping the reference point comparable at scale,
  and
* the ``solve-er`` instance, ``bulk_erdos_renyi_graph(200_000, 10/(n-1))``,
  assembles its sampled upper triangle and that triangle's transpose into
  the CSR that Python sets give for an independent redraw of the same
  sample (median of 5 builds), and
* ``BulkGraph.from_graph`` -- the networkx → CSR conversion every
  networkx request pays once -- turns G(n, p) at n = 1024 (mean degree
  4, the ``service-mixed`` misses) and n = 20 000 (mean degree 10) into
  the set-reference CSR of the graph's edges (median of 21 builds).

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the pairwise comparison to
n = 3000 so CI stays a sub-minute smoke run; the speedup floor applies in
both modes.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.simulator.bulk import BulkGraph

from repro.analysis.tables import render_table
from repro.baselines.bulk_greedy import greedy_dominating_set_bulk
from repro.baselines.greedy import greedy_dominating_set
from repro.graphs.bulk import (
    bulk_erdos_renyi_graph,
    bulk_graph_suite,
    bulk_unit_disk_graph,
)
from repro.graphs.generators import erdos_renyi_graph, random_unit_disk_graph
from repro.graphs.unit_disk import random_unit_disk_positions, unit_disk_edges

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
#: Node count for the bucketed-vs-pairwise construction comparison.
N_CONSTRUCTION = 3000 if QUICK else 20000
#: Radius chosen so expected degree stays ≈ 9 at either size.
RADIUS = 0.03 if QUICK else 0.012
#: Minimum acceptable (pairwise / grid) wall-clock ratio.
MIN_SPEEDUP = 20.0
#: Node count for the greedy comparison (the set-based greedy is the cap).
N_GREEDY = 600 if QUICK else 2000
#: Radius keeping the greedy instance moderately dense (expected degree
#: ≈ 40 at full scale) so the span-update cost dominates both variants.
GREEDY_RADIUS = 0.12 if QUICK else 0.08
#: The ``solve-er`` instance (mean degree 10), built ER_BUILDS times.
N_ER = 200_000
ER_BUILDS = 5
#: networkx G(n, p) instances ``(n, mean degree)`` converted NX_BUILDS times.
NX_SIZES = ((1024, 4), (20_000, 10))
NX_BUILDS = 21


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def _set_reference_csr(n, u, v) -> tuple[list[int], list[int]]:
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


def _redrawn_er_edges(n: int, p: float, seed: int) -> tuple[list[int], list[int]]:
    """G(n, p)'s edges for ``seed``, redrawn without the generator's code.

    The same batches of ``rng.geometric`` gaps from the same stream, summed
    as Python ints, and each pair position below n(n−1)/2 decoded to its
    pair (u, v) by walking the rows.
    """
    total = n * (n - 1) // 2
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


def _er_build(seed: int) -> dict:
    """Median build time of the ``solve-er`` graph and its set-reference check."""
    p = 10 / (N_ER - 1)
    times = [
        _timed(lambda: bulk_erdos_renyi_graph(N_ER, p, seed=seed))[1]
        for _ in range(ER_BUILDS)
    ]
    built = bulk_erdos_renyi_graph(N_ER, p, seed=seed)
    u, v = _redrawn_er_edges(N_ER, p, seed)
    return {
        "n": N_ER,
        "edges": built.number_of_edges,
        "builds": ER_BUILDS,
        "median_s": round(float(np.median(times)), 4),
        "set_match": (built.indptr.tolist(), built.col.tolist())
        == _set_reference_csr(N_ER, u, v),
    }


def _networkx_build(n: int, mean_degree: int, seed: int) -> dict:
    """Median ``from_graph`` time of one G(n, p) and its set-reference check."""
    graph = erdos_renyi_graph(n, p=mean_degree / (n - 1), seed=seed)
    times = [_timed(lambda: BulkGraph.from_graph(graph))[1] for _ in range(NX_BUILDS)]
    built = BulkGraph.from_graph(graph)
    position = {node: index for index, node in enumerate(sorted(graph.nodes()))}
    u = [position[a] for a, _ in graph.edges()]
    v = [position[b] for _, b in graph.edges()]
    return {
        "n": n,
        "mean_degree": mean_degree,
        "edges": graph.number_of_edges(),
        "builds": NX_BUILDS,
        "median_s": round(float(np.median(times)), 5),
        "set_match": built.nodes == tuple(position)
        and (built.indptr.tolist(), built.col.tolist())
        == _set_reference_csr(n, u, v),
    }


@pytest.mark.benchmark(group="construction")
def test_construction_speedup(
    benchmark, bench_seed, emit_table, emit_json
):
    """Grid-bucket unit-disk construction: ≥ 20× over the pairwise scan."""
    points = random_unit_disk_positions(N_CONSTRUCTION, seed=bench_seed)
    (grid_u, grid_v), grid_time = _timed(
        lambda: unit_disk_edges(points, RADIUS, method="grid")
    )
    (pair_u, pair_v), pair_time = _timed(
        lambda: unit_disk_edges(points, RADIUS, method="pairwise")
    )
    edges_match = set(zip(grid_u.tolist(), grid_v.tolist())) == set(
        zip(pair_u.tolist(), pair_v.tolist())
    )
    construction_speedup = pair_time / grid_time

    # The xlarge suite never materialises per-edge Python objects; building
    # all of it should cost on the order of one networkx instance.
    suite, suite_time = _timed(lambda: bulk_graph_suite("xlarge", seed=bench_seed))

    # Bucket-queue greedy vs. the set-based reference.
    small = random_unit_disk_graph(N_GREEDY, radius=GREEDY_RADIUS, seed=bench_seed)
    reference_set, reference_time = _timed(lambda: greedy_dominating_set(small))
    bulk_small = bulk_unit_disk_graph(N_GREEDY, radius=GREEDY_RADIUS, seed=bench_seed)
    bulk_set, bulk_time = _timed(lambda: greedy_dominating_set_bulk(bulk_small))
    greedy_match = reference_set == bulk_set

    er_build = _er_build(bench_seed)
    nx_builds = [
        _networkx_build(n, mean_degree, bench_seed) for n, mean_degree in NX_SIZES
    ]

    rows = [
        {
            "measurement": f"unit_disk_edges n={N_CONSTRUCTION}",
            "baseline_s": round(pair_time, 3),
            "fast_s": round(grid_time, 4),
            "speedup": round(construction_speedup, 1),
            "identical": edges_match,
        },
        {
            "measurement": f"bucket greedy n={N_GREEDY}",
            "baseline_s": round(reference_time, 3),
            "fast_s": round(bulk_time, 4),
            "speedup": round(reference_time / bulk_time, 1),
            "identical": greedy_match,
        },
        {
            "measurement": "bulk_graph_suite('xlarge') build",
            "baseline_s": None,
            "fast_s": round(suite_time, 4),
            "speedup": None,
            "identical": True,
        },
        {
            "measurement": f"bulk_erdos_renyi_graph n={N_ER} build (median)",
            "baseline_s": None,
            "fast_s": er_build["median_s"],
            "speedup": None,
            "identical": er_build["set_match"],
        },
        *(
            {
                "measurement": f"networkx G(n={build['n']}, mean degree "
                f"{build['mean_degree']}) -> CSR (median)",
                "baseline_s": None,
                "fast_s": build["median_s"],
                "speedup": None,
                "identical": build["set_match"],
            }
            for build in nx_builds
        ),
    ]
    emit_table(
        "construction_speedup",
        render_table(
            rows,
            title=(
                "CSR-native construction "
                f"({'quick' if QUICK else 'full'} mode, "
                f"{grid_u.size} edges at n={N_CONSTRUCTION})"
            ),
        ),
    )
    emit_json(
        "construction_speedup",
        {
            "quick": QUICK,
            "n": N_CONSTRUCTION,
            "radius": RADIUS,
            "edges": int(grid_u.size),
            "pairwise_s": round(pair_time, 3),
            "grid_s": round(grid_time, 4),
            "speedup": round(construction_speedup, 1),
            "edges_match": bool(edges_match),
            "erdos_renyi_build": er_build,
            "networkx_build": nx_builds,
            "xlarge_suite_nodes": {name: g.n for name, g in suite.items()},
            "xlarge_suite_build_s": round(suite_time, 3),
            "greedy": {
                "n": N_GREEDY,
                "reference_s": round(reference_time, 3),
                "bucket_queue_s": round(bulk_time, 4),
                "sets_match": bool(greedy_match),
            },
        },
    )

    assert edges_match, "grid bucketing changed the edge set"
    assert greedy_match, "bucket-queue greedy diverged from the reference"
    assert er_build["set_match"], "the ER CSR differs from the set reference"
    for build in nx_builds:
        assert build["set_match"], (
            f"from_graph at n={build['n']} differs from the set reference"
        )
    assert construction_speedup >= MIN_SPEEDUP, (
        f"construction speedup {construction_speedup:.1f}× below the "
        f"{MIN_SPEEDUP}× floor"
    )

    benchmark(lambda: unit_disk_edges(points, RADIUS, method="grid"))
