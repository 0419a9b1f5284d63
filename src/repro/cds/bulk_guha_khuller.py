"""CSR-native Guha–Khuller greedy scan (bucket-queue).

The set-based implementation in :mod:`repro.cds.guha_khuller` re-derives
every gray node's white gain from scratch on every scan -- O(n · m) set
scans, which caps it at a few thousand nodes.  This module reproduces the
*identical* scan sequence on a :class:`~repro.simulator.bulk.BulkGraph`
with the same bucket-queue treatment as
:func:`repro.baselines.bulk_greedy.greedy_dominating_set_bulk`:

* per-node white gains live in an integer array; a scan updates them with
  one CSR gather plus one ``bincount`` (every neighbour of a node that
  stops being white loses one unit of gain);
* "pick the gray node with the maximum gain" uses one lazy min-heap per
  gain value, so ties still break by node id -- exactly the
  ``max(sorted(...), key=white_gain)`` rule of the reference (Python's
  ``max`` keeps the first maximum, i.e. the smallest identifier);
* unlike the plain greedy, candidates *join* the queue over time (white
  nodes become gray when a neighbour is scanned), and a newly gray node
  may out-gain every currently queued candidate -- the scan cursor
  therefore moves back up whenever an entry is filed above it.

Selection rule, tie-breaking and therefore the produced connected
dominating set are identical to
:func:`~repro.cds.guha_khuller.guha_khuller_connected_dominating_set` on
every connected input (CSR positions order like sorted identifiers by
construction).
"""

from __future__ import annotations

import heapq
from collections import defaultdict

import numpy as np

from repro.cds.bulk import bulk_is_connected, is_connected_dominating_set_bulk
from repro.simulator.bulk import BulkGraph

WHITE, GRAY, BLACK = 0, 1, 2


def guha_khuller_connected_dominating_set_bulk(bulk: BulkGraph) -> frozenset:
    """Guha–Khuller greedy scan on a CSR graph with a bucket queue.

    Parameters
    ----------
    bulk:
        A connected CSR graph with at least one node.

    Returns
    -------
    frozenset
        The same connected dominating set the set-based
        :func:`~repro.cds.guha_khuller.guha_khuller_connected_dominating_set`
        selects (maximum white gain first, ties broken by node id).

    Raises
    ------
    ValueError
        If the graph is disconnected (no CDS exists).
    """
    if not bulk_is_connected(bulk):
        raise ValueError("a disconnected graph has no connected dominating set")
    if bulk.n == 1:
        return frozenset(bulk.nodes)

    n = bulk.n
    color = np.zeros(n, dtype=np.int8)
    # White gain = number of white *open* neighbours; everything starts
    # white, so gains start at the degrees.
    gains = bulk.degrees.astype(np.int64).copy()

    # One lazy min-heap of node indices per gain value (ids pushed in any
    # order; heapq keeps the smallest on top, matching the id tie-break).
    buckets: defaultdict[int, list[int]] = defaultdict(list)

    def scan(node: int) -> None:
        """Colour ``node`` black, its white neighbours gray, update gains."""
        was_white = color[node] == WHITE
        color[node] = BLACK
        neighbors = bulk.col[bulk.indptr[node] : bulk.indptr[node + 1]]
        newly_gray = neighbors[color[neighbors] == WHITE]
        color[newly_gray] = GRAY
        # Every node that stopped being white (the gray converts, plus the
        # scanned node itself on the very first scan) costs each of its
        # neighbours one unit of gain.
        stopped_white = (
            np.append(newly_gray, node) if was_white else newly_gray
        )
        if stopped_white.size:
            decrements = np.bincount(bulk.neighbors_of(stopped_white), minlength=n)
            changed = np.flatnonzero(decrements)
            gains[changed] -= decrements[changed]
        # New gray candidates enter the queue at their *current* gain.
        nonlocal cursor
        for candidate in newly_gray.tolist():
            gain = int(gains[candidate])
            if gain > 0:
                heapq.heappush(buckets[gain], candidate)
                if gain > cursor:
                    cursor = gain
        # Gray candidates whose gain changed get a fresh entry (stale ones
        # are skipped lazily on pop).
        if stopped_white.size:
            for moved in changed.tolist():
                if color[moved] == GRAY and gains[moved] > 0:
                    heapq.heappush(buckets[int(gains[moved])], moved)

    # First scan: the globally best node -- np.argmax returns the first
    # (smallest-id) maximum, the reference's tie-break.
    cursor = int(gains.max())
    scan(int(np.argmax(gains)))
    white_remaining = int(np.count_nonzero(color == WHITE))

    while white_remaining > 0:
        while cursor > 0 and not buckets.get(cursor):
            cursor -= 1
        if cursor <= 0:
            # While white nodes remain, connectivity guarantees some gray
            # node has a white neighbour -- running dry is an internal bug.
            raise RuntimeError(
                "Guha-Khuller ran out of gray candidates; internal error"
            )
        node = heapq.heappop(buckets[cursor])
        if color[node] != GRAY:
            continue
        gain = int(gains[node])
        if gain != cursor:
            # Stale entry: re-file at the true gain and retry.
            if gain > 0:
                heapq.heappush(buckets[gain], node)
            continue
        scan(node)
        white_remaining -= gain

    flags = color == BLACK
    if not is_connected_dominating_set_bulk(bulk, flags):
        raise RuntimeError("Guha-Khuller produced an invalid CDS (internal error)")
    return frozenset(bulk.nodes[index] for index in np.flatnonzero(flags))
