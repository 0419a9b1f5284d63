"""CSR-native greedy set cover (bucket-queue).

The reference :func:`repro.baselines.greedy_set_cover.greedy_set_cover`
re-scans every set per pick (O(picks · Σ|S|) set intersections), which is
fine for the tiny exact-baseline suite but rules the general form out of
large sweeps.  This module runs the identical selection rule -- maximum
number of newly covered elements, ties to the smallest set identifier --
over a CSR representation of the set system:

* gains live in an integer array and are decremented by CSR gathers when
  elements become covered;
* the "pick the best set" step is a bucket queue (one lazy min-heap per
  gain value), the same structure :mod:`repro.baselines.bulk_greedy` uses.

``greedy_set_cover_bulk`` accepts the reference's ``(universe, sets)``
mapping API and returns the identical pick list;
``greedy_set_cover_dominating_set_bulk`` instantiates the cover problem
with closed neighbourhoods straight from a
:class:`~repro.simulator.bulk.BulkGraph` -- no per-set Python objects.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Hashable, Iterable, Mapping

import networkx as nx
import numpy as np

from repro.core.vectorized import VECTORIZED, resolve_bulk_input
from repro.simulator.bulk import BulkGraph


def _greedy_cover_csr(
    element_count: int, indptr: np.ndarray, members: np.ndarray
) -> list[int]:
    """Pick order of greedy set cover over CSR sets (indices into rows).

    ``members`` holds each set's elements (``members[indptr[s]:indptr[s+1]]``,
    duplicates not allowed); every element index below ``element_count``
    must appear in at least one set.  Selection rule: maximum gain, ties to
    the smallest set index -- the reference algorithm's rule exactly.
    """
    set_count = indptr.size - 1
    gains = np.diff(indptr).astype(np.int64)
    covered = np.zeros(element_count, dtype=bool)
    exhausted = np.zeros(set_count, dtype=bool)

    # Reverse incidence: for every element, the sets containing it.
    order = np.argsort(members, kind="stable")
    element_sets = np.repeat(np.arange(set_count, dtype=np.int64), gains)[order]
    element_counts = np.bincount(members, minlength=element_count)
    element_starts = np.concatenate(([0], np.cumsum(element_counts)))

    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for set_index in range(set_count):
        if gains[set_index] > 0:
            buckets[int(gains[set_index])].append(set_index)

    picks: list[int] = []
    remaining = element_count
    cursor = int(gains.max(initial=0))
    while remaining > 0:
        while cursor > 0 and not buckets.get(cursor):
            cursor -= 1
        if cursor <= 0:
            raise ValueError("universe cannot be covered by the given sets")
        chosen = heapq.heappop(buckets[cursor])
        if exhausted[chosen]:
            continue
        gain = int(gains[chosen])
        if gain != cursor:
            # Stale entry: re-file at the true gain and retry.
            if gain > 0:
                heapq.heappush(buckets[gain], chosen)
            continue

        exhausted[chosen] = True
        picks.append(chosen)
        row = members[indptr[chosen] : indptr[chosen + 1]]
        newly = row[~covered[row]]
        covered[newly] = True
        remaining -= int(newly.size)

        # Every set containing a newly covered element loses one gain unit.
        touched = np.concatenate(
            [
                element_sets[element_starts[element] : element_starts[element + 1]]
                for element in newly
            ]
        ) if newly.size else np.empty(0, dtype=np.int64)
        decrements = np.bincount(touched, minlength=set_count)
        changed = np.flatnonzero(decrements)
        gains[changed] -= decrements[changed]
        for moved in changed:
            if not exhausted[moved] and gains[moved] > 0:
                heapq.heappush(buckets[int(gains[moved])], int(moved))
    return picks


def greedy_set_cover_bulk(
    universe: Iterable[Hashable],
    sets: Mapping[Hashable, frozenset],
) -> list[Hashable]:
    """Greedy set cover over arbitrary identifiers, CSR-executed.

    Same signature, same covering precondition and same output (identical
    pick order) as :func:`repro.baselines.greedy_set_cover.greedy_set_cover`.
    """
    elements = sorted(set(universe))
    element_index = {element: position for position, element in enumerate(elements)}
    set_ids = sorted(sets)

    rows: list[np.ndarray] = []
    counts = np.zeros(len(set_ids), dtype=np.int64)
    covered_by_all: set[Hashable] = set()
    for position, set_id in enumerate(set_ids):
        covered_by_all |= sets[set_id]
        # Elements outside the universe never contribute gain; drop them.
        inside = np.fromiter(
            (
                element_index[member]
                for member in sets[set_id]
                if member in element_index
            ),
            dtype=np.int64,
        )
        counts[position] = inside.size
        rows.append(inside)
    missing = set(elements) - covered_by_all
    if missing:
        raise ValueError(
            f"universe cannot be covered; missing elements: {sorted(missing)[:5]}"
        )

    indptr = np.concatenate(([0], np.cumsum(counts)))
    members = (
        np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    )
    picks = _greedy_cover_csr(len(elements), indptr, members)
    return [set_ids[pick] for pick in picks]


def greedy_set_cover_dominating_set_bulk(graph: BulkGraph | nx.Graph) -> frozenset:
    """Set cover greedy over closed neighbourhoods, straight from the CSR.

    Output-identical to
    :func:`repro.baselines.greedy_set_cover.greedy_set_cover_dominating_set`
    (and therefore to the classical greedy dominating set).
    """
    bulk = resolve_bulk_input(graph, VECTORIZED)
    # Closed neighbourhoods as CSR sets: each row is the adjacency row plus
    # the node itself (appended; order within a set is irrelevant to gains).
    indptr = np.concatenate(([0], np.cumsum(bulk.degrees + 1)))
    members = np.empty(int(indptr[-1]), dtype=np.int64)
    ends = indptr[1:] - 1
    mask = np.ones(members.size, dtype=bool)
    mask[ends] = False
    members[mask] = bulk.col
    members[ends] = np.arange(bulk.n, dtype=np.int64)
    picks = _greedy_cover_csr(bulk.n, indptr, members)
    return frozenset(bulk.nodes[pick] for pick in picks)
