"""Turning a dominating set into a connected dominating set.

For a connected graph G and any dominating set S, the "cluster graph" whose
vertices are the members of S, with an edge between two members whenever
they are at distance at most 3 in G, is itself connected.  Connecting the
members along those short paths therefore yields a connected dominating set
with at most 3·|S| nodes (each merge adds at most two connector nodes).

``connect_dominating_set`` realises that construction with a deterministic
*Voronoi + Kruskal* scheme shared verbatim by the CSR implementation in
:mod:`repro.cds.bulk`:

1. every node is assigned an **owner**: itself if it is a member, otherwise
   the smallest member in its closed neighbourhood (one exists -- S
   dominates);
2. every graph edge {u, v} whose endpoints have different owners witnesses
   that owner(u) and owner(v) are within distance 3, reachable by adding
   the (at most two) non-member endpoints as connectors;
3. a Kruskal pass over those witness edges -- sorted by (number of
   connectors needed, owner pair, endpoint pair) -- merges the member
   clusters, adding the connectors of each tree edge.

Cost-0 witness edges (both endpoints members) are processed first, so the
connected components of the induced subgraph G[S] merge for free before
any connector is spent.  The output contains S, is a valid CDS, and has at
most |S| + 2·(|S| − 1) ≤ 3·|S| nodes.

The ``kw_connected_dominating_set`` convenience wrapper runs the full
Kuhn–Wattenhofer pipeline (either backend) and then connects its output,
giving a constant-round-plus-postprocessing CDS heuristic comparable (in
spirit) to the two-phase algorithms the paper cites in its related work.
"""

from __future__ import annotations

from itertools import compress
from typing import Hashable, Iterable

import networkx as nx

from repro.cds.validation import is_connected_dominating_set
from repro.core.kuhn_wattenhofer import PipelineResult, kuhn_wattenhofer_dominating_set
from repro.core.vectorized import SIMULATED
from repro.domset.validation import is_dominating_set
from repro.simulator.bulk import BulkGraph


class _UnionFind:
    """Union-find over member nodes (path halving, union by size)."""

    def __init__(self, items: Iterable[Hashable]) -> None:
        self.parent = {item: item for item in items}
        self.size = {item: 1 for item in self.parent}
        self.components = len(self.parent)

    def find(self, item: Hashable) -> Hashable:
        parent = self.parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(self, left: Hashable, right: Hashable) -> bool:
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return False
        if self.size[root_left] < self.size[root_right]:
            root_left, root_right = root_right, root_left
        self.parent[root_right] = root_left
        self.size[root_left] += self.size[root_right]
        self.components -= 1
        return True


def connect_dominating_set(graph: nx.Graph, dominating_set: Iterable[Hashable]) -> frozenset:
    """Add connector nodes until the dominating set induces a connected subgraph.

    Parameters
    ----------
    graph:
        The (connected) communication graph.
    dominating_set:
        A valid dominating set of ``graph``.

    Returns
    -------
    frozenset
        A connected dominating set containing ``dominating_set``, of size
        at most ``3·|dominating_set|``.  The construction is deterministic
        and identical to :func:`repro.cds.bulk.connect_dominating_set_bulk`.

    ``graph`` may also be a CSR :class:`~repro.simulator.bulk.BulkGraph`;
    the construction then runs entirely on the CSR arrays.

    Raises
    ------
    ValueError
        If the input is not a dominating set or the graph is disconnected
        (no CDS exists in that case).
    """
    if isinstance(graph, BulkGraph):
        from repro.cds.bulk import connect_dominating_set_bulk

        flags = graph.member_mask(dominating_set)
        selected = connect_dominating_set_bulk(graph, flags)
        return frozenset(compress(graph.nodes, selected.tolist()))
    members = set(dominating_set)
    if not is_dominating_set(graph, members):
        raise ValueError("input is not a dominating set")
    if not nx.is_connected(graph):
        raise ValueError("a disconnected graph has no connected dominating set")
    if len(members) <= 1:
        return frozenset(members)

    # Step 1: assign owners (self for members, else the smallest dominator).
    owner = {
        node: node
        if node in members
        else min(neighbor for neighbor in graph.neighbors(node) if neighbor in members)
        for node in graph.nodes()
    }

    # Step 2: witness edges between different owners, keyed for Kruskal.
    witnesses = []
    for u, v in graph.edges():
        if owner[u] == owner[v]:
            continue
        u, v = (u, v) if u < v else (v, u)
        cost = (u not in members) + (v not in members)
        a, b = owner[u], owner[v]
        a, b = (a, b) if a < b else (b, a)
        witnesses.append((cost, a, b, u, v))
    witnesses.sort()

    # Step 3: Kruskal over the member clusters; tree edges add connectors.
    clusters = _UnionFind(members)
    result = set(members)
    for cost, a, b, u, v in witnesses:
        if clusters.union(a, b):
            result.add(u)
            result.add(v)
        if clusters.components == 1:
            break
    if clusters.components != 1:
        raise RuntimeError("failed to connect dominating set components")

    cds = frozenset(result)
    if not is_connected_dominating_set(graph, cds):
        raise RuntimeError("connectification produced an invalid CDS (internal error)")
    return cds


def kw_connected_dominating_set(
    graph: nx.Graph,
    k: int | None = None,
    seed: int | None = None,
    backend: str = SIMULATED,
) -> tuple[frozenset, PipelineResult]:
    """Kuhn–Wattenhofer pipeline followed by connectification.

    Accepts either a networkx graph or (with ``backend="vectorized"``) a
    CSR :class:`~repro.simulator.bulk.BulkGraph`; in the latter case the
    whole chain -- fractional phase, rounding and connectification -- runs
    on CSR arrays and no networkx graph is ever materialised.

    Returns the connected dominating set together with the underlying
    pipeline result (for round/message accounting of the distributed part).
    """
    pipeline = kuhn_wattenhofer_dominating_set(graph, k=k, seed=seed, backend=backend)
    cds = connect_dominating_set(graph, pipeline.dominating_set)
    return cds, pipeline
