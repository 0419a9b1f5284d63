"""Direct-to-CSR graph generators for the large random families.

The networkx generators in :mod:`repro.graphs.generators` materialise one
Python object per node and per edge, which caps comfortable instance sizes
at a few thousand nodes.  The constructors here build
:class:`~repro.simulator.bulk.BulkGraph` CSR structures straight from edge
*arrays* -- no per-edge Python objects at any point -- so sweeps at
n ≥ 20 000 (the ``"xlarge"`` scale) become routine.

Random generators take explicit seeds and are deterministic per seed.
``bulk_unit_disk_graph`` places the *identical* points as
:func:`repro.graphs.unit_disk.random_unit_disk_graph` for the same seed, so
the two construction paths produce interchangeable graphs; the pure-array
families (``bulk_erdos_renyi_graph``) use numpy bit generators and define
their own edge distribution (same family, not the same sample as the
networkx generator).
"""

from __future__ import annotations

import math

import numpy as np

from repro.simulator.bulk import BulkGraph, _index_dtype
from repro.graphs.unit_disk import random_unit_disk_positions, unit_disk_edges


def bulk_unit_disk_graph(
    n: int, radius: float, seed: int | None = None
) -> BulkGraph:
    """A random unit disk graph built straight into CSR form.

    Point placement matches :func:`~repro.graphs.unit_disk.random_unit_disk_graph`
    draw for draw, and edge enumeration uses the grid-bucket spatial hash,
    so the resulting CSR equals ``BulkGraph.from_graph`` of the networkx
    generator at a fraction of the cost.  The placed points are exposed as
    the ``positions`` attribute ((n, 2) array).
    """
    points = random_unit_disk_positions(n, seed=seed)
    u, v = unit_disk_edges(points, radius)
    bulk = BulkGraph.from_edges(n, u, v)
    bulk.positions = points
    return bulk


def bulk_erdos_renyi_graph(n: int, p: float, seed: int | None = None) -> BulkGraph:
    """G(n, p) sampled directly into CSR form with geometric skipping.

    Instead of flipping one coin per pair, the generator draws the *gaps*
    between successive edges in the flattened upper-triangular pair order
    (each gap is geometric with success probability p; Batagelj & Brandes,
    Phys. Rev. E 71, 2005), which costs O(expected edges) regardless of n.
    The sorted pairs are the upper triangle in CSR order: one search gives
    its row starts and one subtraction its columns, both written in the
    CSR's index dtype, and :meth:`BulkGraph._from_upper` adds the
    transposed lower triangle.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    total_pairs = n * (n - 1) // 2
    if p == 0.0 or total_pairs == 0:
        return BulkGraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    if p == 1.0:
        linear = np.arange(total_pairs, dtype=np.int64)
    else:
        linear = _edge_pairs(np.random.default_rng(seed), p, total_pairs)

    # Invert the triangular flattening: pair t belongs to row u with
    # offsets[u] ≤ t < offsets[u+1], then v = t − (offsets[u] − u − 1).
    # ``linear`` is sorted, so n searches for the row starts in it give the
    # upper triangle's row pointer (m searches into ``offsets`` would give
    # each pair's u).  Strictly increasing pairs give 0 ≤ u < v < n without
    # duplicates: each row's columns ascend.
    m = linear.size
    offsets = _row_offsets(n)
    index = _index_dtype(n, 2 * m)
    indptr = np.empty(n + 1, dtype=index)
    indptr[:n] = np.searchsorted(linear, offsets)
    indptr[n] = m
    entries = np.empty(2 * m, dtype=index)
    shifts = offsets - np.arange(n, dtype=np.int64) - 1
    np.subtract(
        linear, np.repeat(shifts, np.diff(indptr)), out=entries[m:], casting="unsafe"
    )
    # Free the m pair positions before the assembly allocates its buffers.
    del linear
    return BulkGraph._from_upper(n, indptr, entries)


def _edge_pairs(rng: np.random.Generator, p: float, total_pairs: int) -> np.ndarray:
    """The sorted pair positions of a G(n, p) sample, 0 < p < 1."""
    chunks: list[np.ndarray] = []
    position = -1
    # Expected edges ≈ p · total_pairs; draw gaps in batches until the
    # pair space is exhausted.
    batch = max(1024, int(1.1 * p * total_pairs) + 16)
    while position < total_pairs - 1:
        positions = _geometric_gaps(rng, p, batch, total_pairs + 1)
        np.cumsum(positions, out=positions)
        positions += position
        chunks.append(positions)
        position = int(positions[-1])
    linear = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return linear[: np.searchsorted(linear, total_pairs)]


def _geometric_gaps(
    rng: np.random.Generator, p: float, size: int, cap: int
) -> np.ndarray:
    """``rng.geometric(p, size)`` with every gap above ``cap`` set to ``cap``.

    For p < 1/3 numpy draws each variate as ceil(−E / log1p(−p)) from its
    standard exponential stream E (a quotient of 2⁶³ or more gives
    INT64_MAX): the same quotients are taken here on one float array, the
    same bits.  Capping them before the cast keeps a huge or infinite
    quotient (a tiny p) from wrapping the positions' cumulative sum; a gap
    of ``cap`` = pairs + 1 already lands past the pair space.  For p ≥ 1/3
    numpy searches instead, and its variates stay small.
    """
    if p >= 1 / 3:
        return rng.geometric(p, size)
    gaps = rng.standard_exponential(size)
    with np.errstate(over="ignore"):
        np.divide(gaps, -math.log1p(-p), out=gaps)
    np.minimum(gaps, float(cap), out=gaps)
    np.ceil(gaps, out=gaps)
    # Cast in place: each element is read before its own slot is written.
    whole = gaps.view(np.int64)
    np.copyto(whole, gaps, casting="unsafe")
    return whole


def _row_offsets(n: int) -> np.ndarray:
    """Start offset of each row u in the flattened upper-triangular order."""
    counts = np.arange(n - 1, -1, -1, dtype=np.int64)  # row u has n-1-u pairs
    return np.concatenate(([0], np.cumsum(counts[:-1])))


def bulk_grid_graph(rows: int, cols: int) -> BulkGraph:
    """A rows × cols grid graph built straight into CSR form.

    Node labels follow :func:`repro.graphs.generators.grid_graph`'s
    row-major integer relabelling, so the CSR equals
    ``BulkGraph.from_graph(grid_graph(rows, cols))``.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return BulkGraph.from_edges(rows * cols, u, v)


def bulk_caterpillar_graph(spine: int, legs_per_node: int) -> BulkGraph:
    """A caterpillar (path + pendant legs) built straight into CSR form.

    Matches :func:`repro.graphs.generators.caterpillar_graph`'s labelling:
    spine nodes 0..spine-1, then legs in spine order.
    """
    if spine <= 0:
        raise ValueError("spine must be positive")
    if legs_per_node < 0:
        raise ValueError("legs_per_node must be non-negative")
    spine_u = np.arange(spine - 1, dtype=np.int64)
    spine_v = spine_u + 1
    leg_owner = np.repeat(np.arange(spine, dtype=np.int64), legs_per_node)
    leg_id = spine + np.arange(spine * legs_per_node, dtype=np.int64)
    u = np.concatenate([spine_u, leg_owner])
    v = np.concatenate([spine_v, leg_id])
    return BulkGraph.from_edges(spine + spine * legs_per_node, u, v)


def bulk_graph_suite(scale: str = "xlarge", seed: int = 0) -> dict[str, BulkGraph]:
    """CSR-native graph collections for vectorized-backend sweeps.

    ``"large"`` mirrors the sizes of ``graph_suite("large")``; ``"xlarge"``
    (n ≥ 20 000) and ``"huge"`` (n ≥ 10⁶, the sharded-engine scale) exist
    only here -- those instances are never materialised as networkx
    graphs.
    """
    if scale == "large":
        return {
            "erdos_renyi_n2000": bulk_erdos_renyi_graph(2000, 0.004, seed=seed),
            "unit_disk_n2000": bulk_unit_disk_graph(2000, radius=0.04, seed=seed),
            "grid_45x45": bulk_grid_graph(45, 45),
            "caterpillar_500x3": bulk_caterpillar_graph(500, 3),
        }
    if scale == "xlarge":
        return {
            "erdos_renyi_n20000": bulk_erdos_renyi_graph(20000, 4e-4, seed=seed),
            "unit_disk_n20000": bulk_unit_disk_graph(20000, radius=0.012, seed=seed),
            "grid_150x150": bulk_grid_graph(150, 150),
            "caterpillar_5000x3": bulk_caterpillar_graph(5000, 3),
        }
    if scale == "huge":
        # Expected mean degree ≈ 6 for the ER family (p = 6 / n) and ≈ 6
        # for the unit disk (π r² n ≈ 6); every instance clears n = 10⁶.
        return {
            "erdos_renyi_n1e6": bulk_erdos_renyi_graph(1_000_000, 6e-6, seed=seed),
            "unit_disk_n1e6": bulk_unit_disk_graph(
                1_000_000, radius=0.00138, seed=seed
            ),
            "grid_1000x1000": bulk_grid_graph(1000, 1000),
            "caterpillar_250000x3": bulk_caterpillar_graph(250_000, 3),
        }
    raise ValueError(
        f"unknown scale {scale!r}; expected 'large', 'xlarge' or 'huge'"
    )
