"""CSR-native greedy dominating set (bucket-queue).

The classical greedy baseline in :mod:`repro.baselines.greedy` maintains
Python sets per step; its per-pick cost is dominated by closed-neighbourhood
set intersections, which caps it at a few thousand nodes.  This variant
keeps the reference point available at the ``"xlarge"`` scale: spans live in
an integer array, span updates are CSR gathers + one ``bincount``, and the
"pick the maximum span" step uses a bucket queue (one lazy min-heap per span
value, so ties still break by node id).

Total work is O(n + m) array element updates plus O((n + m) log n) for the
heap traffic -- in practice a few milliseconds where the set-based greedy
takes minutes.  The output is *identical* to
:func:`repro.baselines.greedy.greedy_dominating_set`: same selection rule
(maximum current span, ties to the smallest node id), hence the same set.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

import networkx as nx
import numpy as np

from repro.core.vectorized import VECTORIZED, resolve_bulk_input
from repro.simulator.bulk import BulkGraph


def greedy_dominating_set_bulk(graph: BulkGraph | nx.Graph) -> frozenset:
    """Greedy dominating set on a CSR graph with a bucket queue.

    Parameters
    ----------
    graph:
        A :class:`~repro.simulator.bulk.BulkGraph`; a networkx graph is
        accepted for convenience, checked and converted.

    Returns
    -------
    frozenset
        The same dominating set ``greedy_dominating_set`` selects (maximum
        span first, ties broken by node id).
    """
    bulk = resolve_bulk_input(graph, VECTORIZED)
    n = bulk.n
    spans = (bulk.degrees + 1).astype(np.int64)
    covered = np.zeros(n, dtype=bool)
    chosen = np.zeros(n, dtype=bool)

    # One lazy min-heap of node indices per span value.  Appending ids in
    # ascending order yields already-valid heaps without heapify.
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for node in range(n):
        buckets[int(spans[node])].append(node)

    picks: list[int] = []
    remaining = n
    cursor = int(spans.max())
    while remaining > 0:
        while cursor > 0 and not buckets.get(cursor):
            cursor -= 1
        if cursor <= 0:
            # Every remaining entry covers nothing new, yet uncovered nodes
            # remain -- impossible for a correct implementation.
            raise RuntimeError("greedy ran out of useful nodes; internal error")
        node = heapq.heappop(buckets[cursor])
        if chosen[node]:
            continue
        span = int(spans[node])
        if span != cursor:
            # Stale entry: re-file at the true span and retry.
            if span > 0:
                heapq.heappush(buckets[span], node)
            continue

        chosen[node] = True
        picks.append(node)
        closed = np.append(bulk.col[bulk.indptr[node] : bulk.indptr[node + 1]], node)
        newly = closed[~covered[closed]]
        covered[newly] = True
        remaining -= int(newly.size)

        # Every dominator of a newly covered node loses one unit of span.
        decrements = np.bincount(
            np.concatenate((bulk.neighbors_of(newly), newly)), minlength=n
        )
        changed = np.flatnonzero(decrements)
        spans[changed] -= decrements[changed]
        for moved in changed:
            if not chosen[moved] and spans[moved] > 0:
                heapq.heappush(buckets[int(spans[moved])], int(moved))

    return frozenset(bulk.nodes[index] for index in picks)
