"""The Guha–Khuller greedy connected dominating set baseline.

The paper cites Guha & Khuller [10] as the classical (ln Δ + O(1))
approximation for *connected* dominating sets.  The first (and simplest) of
their two algorithms grows a connected "black" tree greedily:

* all nodes start white;
* repeatedly, a gray or white node is *scanned*: it is coloured black, its
  white neighbours turn gray;
* the first scanned node is the one with the most white neighbours; every
  subsequent scan must pick a gray node (keeping the black set connected),
  chosen to maximise the number of white nodes it would colour;
* when no white node remains, the black nodes form a connected dominating
  set.

This is a centralized baseline used for quality comparisons of the CDS
extension; it is not part of the paper's own contribution.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.cds.validation import is_connected_dominating_set
from repro.core.vectorized import (
    SIMULATED,
    VECTORIZED,
    resolve_bulk_input,
    validate_backend,
)

WHITE, GRAY, BLACK = 0, 1, 2


def guha_khuller_connected_dominating_set(
    graph: nx.Graph, backend: str = SIMULATED
) -> frozenset:
    """Compute a connected dominating set with the Guha–Khuller greedy scan.

    Parameters
    ----------
    graph:
        A connected graph with at least one node.  May also be a CSR
        :class:`~repro.simulator.bulk.BulkGraph`, in which case
        ``backend="vectorized"`` is required.
    backend:
        ``"simulated"`` runs the original set-based scan;
        ``"vectorized"`` runs the identical selection rule on the CSR
        with a bucket queue
        (:mod:`repro.cds.bulk_guha_khuller`) -- same set, milliseconds
        where the set-based scan takes minutes.

    Returns
    -------
    frozenset
        A connected dominating set (the whole vertex set in the degenerate
        single-node case).

    Raises
    ------
    ValueError
        If the graph is disconnected (no CDS exists).
    """
    validate_backend(backend)
    bulk = resolve_bulk_input(graph, backend)
    if backend == VECTORIZED:
        from repro.cds.bulk_guha_khuller import (
            guha_khuller_connected_dominating_set_bulk,
        )

        return guha_khuller_connected_dominating_set_bulk(bulk)
    if not nx.is_connected(graph):
        raise ValueError("a disconnected graph has no connected dominating set")
    if graph.number_of_nodes() == 1:
        return frozenset(graph.nodes())

    color: dict[Hashable, int] = {node: WHITE for node in graph.nodes()}

    def white_gain(node: Hashable) -> int:
        return sum(1 for neighbor in graph.neighbors(node) if color[neighbor] == WHITE)

    def scan(node: Hashable) -> None:
        color[node] = BLACK
        for neighbor in graph.neighbors(node):
            if color[neighbor] == WHITE:
                color[neighbor] = GRAY

    # First scan: the globally best node (ties broken by id).
    first = max(sorted(graph.nodes()), key=white_gain)
    # A node with no white neighbours can still be forced in the single-node
    # component case handled above; here Δ ≥ 1 guarantees gain ≥ 1.
    scan(first)

    while any(value == WHITE for value in color.values()):
        # Subsequent scans must pick a gray node (adjacent to the black tree)
        # so the black set stays connected.  While white nodes remain, the
        # connectivity of the graph guarantees some gray node has a white
        # neighbour (white nodes are never adjacent to black ones), so the
        # chosen candidate always makes progress.
        candidates = [node for node in sorted(graph.nodes()) if color[node] == GRAY]
        best = max(candidates, key=white_gain)
        scan(best)

    cds = frozenset(node for node, value in color.items() if value == BLACK)
    if not is_connected_dominating_set(graph, cds):
        raise RuntimeError("Guha-Khuller produced an invalid CDS (internal error)")
    return cds
