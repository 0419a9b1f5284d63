"""CSR-native connected dominating set construction and validation.

Mirrors :mod:`repro.cds.connectify` on a
:class:`~repro.simulator.bulk.BulkGraph`: the owner assignment, witness
edge enumeration and Kruskal merge run on CSR arrays, so end-to-end CDS
pipelines at the n ≥ 20 000 scale never materialise a networkx object.
The construction follows the exact deterministic specification of
:func:`repro.cds.connectify.connect_dominating_set` -- owners are smallest
dominators, witness edges sort by the same key -- so the two
implementations select the *identical* connected dominating set (CSR
positions order like sorted node identifiers by construction).
"""

from __future__ import annotations

import numpy as np

from repro.simulator.bulk import BulkGraph


def bulk_connected_components(
    bulk: BulkGraph, subset: np.ndarray | None = None
) -> np.ndarray:
    """Component label per node via CSR frontier BFS, O(n + m) total.

    ``subset`` restricts the traversal to the induced subgraph on the
    flagged nodes; excluded nodes are labelled −1.  Labels are assigned in
    ascending order of each component's smallest node.  Frontiers are
    index arrays (each node enters one frontier once, each adjacency row
    is gathered once), so heavily fragmented graphs -- thousands of
    components at n ≥ 20 000 -- cost the same linear sweep as connected
    ones.
    """
    include = (
        np.ones(bulk.n, dtype=bool)
        if subset is None
        else np.asarray(subset, dtype=bool)
    )
    labels = np.full(bulk.n, -1, dtype=np.int64)
    unvisited = include.copy()
    current = 0
    cursor = 0
    while True:
        # The seed cursor only moves forward: amortized O(n) over all
        # components (no per-component full-array scan).
        while cursor < bulk.n and not unvisited[cursor]:
            cursor += 1
        if cursor >= bulk.n:
            break
        frontier = np.array([cursor], dtype=np.int64)
        unvisited[cursor] = False
        labels[cursor] = current
        while frontier.size:
            neighbors = bulk.neighbors_of(frontier)
            fresh = neighbors[unvisited[neighbors]]
            if fresh.size == 0:
                break
            unvisited[fresh] = False
            frontier = np.unique(fresh)
            labels[frontier] = current
        current += 1
    return labels


def bulk_is_connected(bulk: BulkGraph, subset: np.ndarray | None = None) -> bool:
    """Whether the (induced) graph is connected; empty subsets are not."""
    include = (
        np.ones(bulk.n, dtype=bool)
        if subset is None
        else np.asarray(subset, dtype=bool)
    )
    count = int(include.sum())
    if count == 0:
        return False
    labels = bulk_connected_components(bulk, include)
    return int(labels.max()) == 0


def bulk_largest_component(bulk: BulkGraph) -> BulkGraph:
    """The induced subgraph on the largest connected component.

    Nodes are relabelled 0..n'−1 in ascending order of their original
    positions (the CSR analogue of
    ``networkx.convert_node_labels_to_integers`` after a component
    extraction) -- the standard preprocessing step for CDS experiments,
    which are only defined on connected graphs.
    """
    labels = bulk_connected_components(bulk)
    counts = np.bincount(labels)
    keep = labels == int(counts.argmax())
    positions = np.flatnonzero(keep)
    relabel = np.full(bulk.n, -1, dtype=np.int64)
    relabel[positions] = np.arange(positions.size, dtype=np.int64)
    mask = keep[bulk.row] & keep[bulk.col] & (bulk.row < bulk.col)
    return BulkGraph.from_edges(
        positions.size, relabel[bulk.row[mask]], relabel[bulk.col[mask]]
    )


def bulk_bfs_distances(
    bulk: BulkGraph,
    sources: np.ndarray,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Multi-source BFS hop distances on the CSR, O(n + m) total.

    Returns one distance per node: 0 for the sources, the hop count of
    the nearest source otherwise, −1 for unreachable (or excluded)
    nodes.  ``subset`` restricts the traversal to the induced subgraph on
    the flagged nodes (sources outside the subset are dropped) -- the
    substrate for backbone diameter/eccentricity and for
    backbone-constrained routing distances, replacing the
    ``networkx.shortest_path_length`` calls of the dense path.
    """
    include = (
        np.ones(bulk.n, dtype=bool)
        if subset is None
        else np.asarray(subset, dtype=bool)
    )
    distances = np.full(bulk.n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    frontier = frontier[include[frontier]]
    distances[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        neighbors = bulk.neighbors_of(frontier)
        fresh = np.unique(
            neighbors[include[neighbors] & (distances[neighbors] < 0)]
        )
        distances[fresh] = depth
        frontier = fresh
    return distances


def is_connected_dominating_set_bulk(bulk: BulkGraph, flags: np.ndarray) -> bool:
    """CSR version of :func:`repro.cds.validation.is_connected_dominating_set`."""
    flags = np.asarray(flags, dtype=bool)
    if not flags.any():
        return False
    if not bulk.is_dominating_set(flags):
        return False
    return bulk_is_connected(bulk, flags)


def connect_dominating_set_bulk(bulk: BulkGraph, flags: np.ndarray) -> np.ndarray:
    """Add connectors until the flagged dominating set induces a connected graph.

    Parameters
    ----------
    bulk:
        The (connected) communication graph.
    flags:
        Boolean member flags of a valid dominating set, indexed like
        ``bulk.nodes``.

    Returns
    -------
    numpy.ndarray
        Boolean flags of a connected dominating set containing the input,
        of size at most ``3·|S|`` -- the same set
        :func:`repro.cds.connectify.connect_dominating_set` produces.

    Raises
    ------
    ValueError
        If the input is not a dominating set or the graph is disconnected.
    """
    flags = np.asarray(flags, dtype=bool)
    if not bulk.is_dominating_set(flags):
        raise ValueError("input is not a dominating set")
    if not bulk_is_connected(bulk):
        raise ValueError("a disconnected graph has no connected dominating set")
    members = np.flatnonzero(flags)
    if members.size <= 1:
        return flags.copy()

    # Step 1: owner per node -- itself for members, else the smallest
    # (first, in the ascending CSR row) dominating neighbour.
    owner_candidates = np.where(flags[bulk.col], bulk.col, bulk.n)
    owner = np.full(bulk.n, bulk.n, dtype=np.int64)
    nonempty = np.flatnonzero(bulk.degrees > 0)
    if bulk.col.size:
        owner[nonempty] = np.minimum.reduceat(
            owner_candidates, bulk.indptr[nonempty]
        )
    owner[flags] = members

    # Step 2: witness edges (u < v, different owners) with the Kruskal key
    # (connector cost, owner pair, endpoint pair).
    half = bulk.row < bulk.col
    u, v = bulk.row[half], bulk.col[half]
    differs = owner[u] != owner[v]
    u, v = u[differs], v[differs]
    cost = (~flags[u]).astype(np.int64) + (~flags[v]).astype(np.int64)
    owner_low = np.minimum(owner[u], owner[v])
    owner_high = np.maximum(owner[u], owner[v])
    order = np.lexsort((v, u, owner_high, owner_low, cost))

    # Step 3: Kruskal over the member clusters (union-find on positions).
    parent = np.arange(bulk.n, dtype=np.int64)

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = int(parent[node])
        return node

    result = flags.copy()
    components = members.size
    for index in order:
        root_a = find(int(owner_low[index]))
        root_b = find(int(owner_high[index]))
        if root_a == root_b:
            continue
        parent[root_b] = root_a
        result[u[index]] = True
        result[v[index]] = True
        components -= 1
        if components == 1:
            break
    if components != 1:
        raise RuntimeError("failed to connect dominating set components")

    if not is_connected_dominating_set_bulk(bulk, result):
        raise RuntimeError("connectification produced an invalid CDS (internal error)")
    return result


def backbone_statistics_bulk(
    bulk: BulkGraph,
    backbone,
    sample_pairs: int = 50,
    seed: int = 0,
):
    """CSR implementation of :func:`repro.cds.validation.backbone_statistics`.

    Produces the identical :class:`~repro.cds.validation.BackboneStatistics`
    as the networkx path on the equivalent graph: the diameter comes from
    one BFS per backbone node over the induced backbone, the stretch
    sample draws the same ``random.Random(seed)`` node pairs (``bulk``
    stores nodes sorted, matching the dense path's ordering), and each
    pair's backbone route is one multi-source BFS from the source's
    adjacent backbone heads -- the exact minimum the dense path takes
    over all (source head, target head) combinations.  No networkx object
    is ever materialised.
    """
    import random

    from repro.cds.validation import BackboneStatistics

    members = set(backbone)
    flags = bulk.member_mask(members)
    dominating = bool(members) and bulk.is_dominating_set(flags)
    member_positions = np.flatnonzero(flags)
    connected = bool(members) and bulk_is_connected(bulk, flags)

    diameter = None
    stretch = None
    if connected and member_positions.size > 0:
        if member_positions.size > 1:
            diameter = 0
            for position in member_positions.tolist():
                distances = bulk_bfs_distances(
                    bulk, np.array([position]), subset=flags
                )
                diameter = max(diameter, int(distances[member_positions].max()))
        else:
            diameter = 0

        # Stretch: route via the backbone vs. the direct shortest path --
        # same RNG, same node ordering, hence the same sampled pairs as
        # the dense implementation.
        rng = random.Random(seed)
        nodes = list(bulk.nodes)
        worst = 1.0
        for _ in range(sample_pairs):
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source == target:
                continue
            source_position = int(bulk.index_of([source])[0])
            target_position = int(bulk.index_of([target])[0])
            direct_distances = bulk_bfs_distances(
                bulk, np.array([source_position])
            )
            direct = int(direct_distances[target_position])
            if direct <= 0:
                continue
            source_heads = _closed_member_positions(bulk, source_position, flags)
            target_heads = _closed_member_positions(bulk, target_position, flags)
            if source_heads.size == 0 or target_heads.size == 0:
                continue
            backbone_distances = bulk_bfs_distances(
                bulk, source_heads, subset=flags
            )
            reachable = backbone_distances[target_heads]
            reachable = reachable[reachable >= 0]
            if reachable.size == 0:
                continue
            hops = (
                int(reachable.min())
                + int(not flags[source_position])
                + int(not flags[target_position])
            )
            worst = max(worst, hops / direct)
        stretch = worst

    if member_positions.size:
        induced_degrees = bulk.neighbor_count(flags)[member_positions]
        mean_degree = float(induced_degrees.sum()) / member_positions.size
    else:
        mean_degree = 0.0
    return BackboneStatistics(
        size=len(members),
        is_dominating=dominating,
        is_connected=connected,
        diameter=diameter,
        mean_backbone_degree=mean_degree,
        stretch=stretch,
    )


def _closed_member_positions(
    bulk: BulkGraph, position: int, flags: np.ndarray
) -> np.ndarray:
    """Backbone positions in the closed neighbourhood of ``position``."""
    closed = np.append(
        bulk.col[bulk.indptr[position] : bulk.indptr[position + 1]], position
    )
    return closed[flags[closed]]
