"""Dominating set validation.

A set S ⊆ V dominates G when every node is in S or adjacent to a node of S
(equivalently: every *closed* neighbourhood intersects S).  These checks are
used pervasively -- every algorithm's output is validated before any quality
number is reported.
"""

from __future__ import annotations

from itertools import compress
from typing import Hashable, Iterable

import networkx as nx
import numpy as np

from repro.graphs.utils import closed_neighborhood, is_bulk_graph


def is_dominating_set(graph: nx.Graph, candidate: Iterable[Hashable]) -> bool:
    """Whether ``candidate`` dominates every node of ``graph``.

    Nodes in ``candidate`` that are not part of the graph are rejected with
    ``ValueError`` -- passing a stale set from a different graph is always a
    bug worth surfacing immediately.  On a CSR graph ``candidate`` may also
    be a bool membership mask in ``graph.nodes`` order.
    """
    mask = isinstance(candidate, np.ndarray) and candidate.dtype == bool
    if mask and is_bulk_graph(graph):
        if candidate.shape != (graph.n,):
            raise ValueError("a membership mask needs one bool per graph node")
        return graph.is_dominating_set(candidate)
    if is_bulk_graph(graph):
        return graph.is_dominating_set(graph.member_mask(candidate))
    members = set(candidate)
    unknown = members - set(graph.nodes())
    if unknown:
        raise ValueError(f"candidate contains nodes not in the graph: {sorted(unknown)[:5]}")
    return len(uncovered_nodes(graph, members)) == 0


def uncovered_nodes(graph: nx.Graph, candidate: Iterable[Hashable]) -> set[Hashable]:
    """Nodes whose closed neighbourhood contains no member of ``candidate``.

    Accepts CSR :class:`~repro.simulator.bulk.BulkGraph` inputs, for which
    the check is one array sweep.
    """
    members = set(candidate)
    if is_bulk_graph(graph):
        # Nodes outside the graph are ignored, as the networkx branch's
        # neighbourhood intersections ignore them.
        flags = graph.member_mask(members, ignore_unknown=True)
        uncovered_flags = ~(flags | graph.neighbor_any(flags))
        return {graph.nodes[position] for position in np.flatnonzero(uncovered_flags)}
    uncovered = set()
    for node in graph.nodes():
        if node in members:
            continue
        if members.isdisjoint(graph.neighbors(node)):
            uncovered.add(node)
    return uncovered


def coverage_counts(graph: nx.Graph, candidate: Iterable[Hashable]) -> dict[Hashable, int]:
    """For each node, how many dominators cover it (|N_i ∩ S|).

    Coverage counts quantify redundancy: a minimal dominating set has many
    nodes with count 1, while a heavily redundant set (e.g. the trivial
    all-nodes set) has counts close to δ_i + 1.  CSR
    :class:`~repro.simulator.bulk.BulkGraph` inputs are counted with one
    ``bincount`` over the adjacency instead of n set intersections.
    """
    members = set(candidate)
    if is_bulk_graph(graph):
        flags = graph.member_mask(members, ignore_unknown=True)
        counts = graph.neighbor_count(flags) + flags
        return {node: int(count) for node, count in zip(graph.nodes, counts)}
    return {
        node: len(members.intersection(closed_neighborhood(graph, node)))
        for node in graph.nodes()
    }


def dominated_by(graph: nx.Graph, candidate: Iterable[Hashable]) -> dict[Hashable, set[Hashable]]:
    """Map each node to the set of dominators covering it."""
    members = set(candidate)
    return {
        node: members.intersection(closed_neighborhood(graph, node))
        for node in graph.nodes()
    }


def prune_redundant(graph: nx.Graph, candidate: Iterable[Hashable]) -> frozenset:
    """Greedily remove members whose removal keeps the set dominating.

    This is a postprocessing utility (not part of the paper's algorithms);
    it is used by examples to show how much slack a distributed solution
    carries, and by tests as a sanity check that pruned sets stay dominating.
    Members are examined in ascending (degree, id) order so low-coverage
    nodes are dropped first and high-coverage nodes are kept; the id
    tie-break makes the examination order -- and hence the output --
    fully deterministic.

    CSR :class:`~repro.simulator.bulk.BulkGraph` inputs run the identical
    examination sequence on arrays
    (:func:`prune_redundant_bulk`): coverage counts live in one integer
    vector and each drop is a slice decrement, so pruning stays O(n + m)
    at the n ≥ 20 000 scale.
    """
    if is_bulk_graph(graph):
        return prune_redundant_bulk(graph, candidate)
    members = set(candidate)
    if not is_dominating_set(graph, members):
        raise ValueError("candidate must be dominating before pruning")
    counts = coverage_counts(graph, members)
    for node in sorted(members, key=lambda v: (graph.degree(v), v)):
        closed = closed_neighborhood(graph, node)
        # node can be dropped iff every node it covers has another dominator.
        if all(counts[covered] >= 2 for covered in closed):
            members.remove(node)
            for covered in closed:
                counts[covered] -= 1
    return frozenset(members)


def prune_redundant_bulk(graph, candidate: Iterable[Hashable]) -> frozenset:
    """CSR implementation of :func:`prune_redundant` (identical output).

    Members are visited in the same ascending (degree, id) order -- CSR
    positions order like sorted identifiers, so ``lexsort`` on
    (position, degree) reproduces the reference sequence exactly -- and
    the per-member droppability test reads one closed-neighbourhood slice
    of the coverage-count vector.
    """
    flags = graph.member_mask(candidate)
    if not graph.is_dominating_set(flags):
        raise ValueError("candidate must be dominating before pruning")
    counts = (graph.neighbor_count(flags) + flags).tolist()
    positions = np.flatnonzero(flags)
    order = positions[np.lexsort((positions, graph.degrees[positions]))]
    # The examination is inherently sequential (every drop changes the
    # counts later members see), so the hot loop runs on plain lists --
    # O(1) indexed updates without per-member array-allocation overhead.
    col = graph.col.tolist()
    indptr = graph.indptr
    keep = flags.tolist()
    for position in order.tolist():
        closed = col[indptr[position] : indptr[position + 1]]
        closed.append(position)
        # position can be dropped iff everything it covers stays covered.
        if all(counts[covered] >= 2 for covered in closed):
            keep[position] = False
            for covered in closed:
                counts[covered] -= 1
    return frozenset(compress(graph.nodes, keep))
