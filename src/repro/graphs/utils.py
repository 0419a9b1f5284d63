"""The paper's graph notation as code.

Section 3 of the paper defines, for a graph G = (V, E) with nodes
v_1, ..., v_n:

* ``N_i`` -- the *closed* neighbourhood of v_i (v_i plus its neighbours),
* ``δ_i`` -- the degree of v_i,
* ``δ⁽¹⁾_i = max_{j ∈ N_i} δ_j`` -- the maximum degree in N_i,
* ``δ⁽²⁾_i = max_{j ∈ N_i} δ⁽¹⁾_j`` -- the maximum degree within distance 2,
* ``Δ`` -- the maximum degree of the graph.

The *neighbourhood matrix* ``N`` (adjacency plus identity) lives on the CSR
arrays of :mod:`repro.lp.formulation`.  These helpers are used by the LP
bounds, the centralized baselines and the validation utilities.  The distributed algorithms never call them: they
compute the same quantities via messages, as the paper requires.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx


def degree_map(graph: nx.Graph) -> dict[Hashable, int]:
    """Map every node to its degree δ_i."""
    return {node: degree for node, degree in graph.degree()}


def is_bulk_graph(graph: object) -> bool:
    """Whether ``graph`` is a CSR :class:`~repro.simulator.bulk.BulkGraph`."""
    from repro.simulator.bulk import BulkGraph

    return isinstance(graph, BulkGraph)


def max_degree(graph: nx.Graph) -> int:
    """The maximum degree Δ of the graph (0 for an edgeless graph).

    Accepts both networkx graphs and CSR
    :class:`~repro.simulator.bulk.BulkGraph` instances.
    """
    if is_bulk_graph(graph):
        return graph.max_degree
    if graph.number_of_nodes() == 0:
        raise ValueError("graph has no nodes")
    return max(degree for _, degree in graph.degree())


def closed_neighborhood(graph: nx.Graph, node: Hashable) -> frozenset:
    """The closed neighbourhood N_i = {v_i} ∪ neighbours of ``node``."""
    return frozenset((node, *graph.neighbors(node)))


def closed_neighborhoods(graph: nx.Graph) -> dict[Hashable, frozenset]:
    """Closed neighbourhoods of every node."""
    return {node: closed_neighborhood(graph, node) for node in graph.nodes()}


def delta_one(graph: nx.Graph) -> dict[Hashable, int]:
    """δ⁽¹⁾_i = max degree over the closed neighbourhood of each node."""
    degrees = degree_map(graph)
    return {
        node: max(degrees[neighbor] for neighbor in closed_neighborhood(graph, node))
        for node in graph.nodes()
    }


def delta_two(graph: nx.Graph) -> dict[Hashable, int]:
    """δ⁽²⁾_i = max degree over all nodes within distance 2 of each node.

    Computed exactly as in the paper's remark below Algorithm 1:
    δ⁽²⁾_i = max_{j ∈ N_i} δ⁽¹⁾_j.
    """
    first_level = delta_one(graph)
    return {
        node: max(
            first_level[neighbor] for neighbor in closed_neighborhood(graph, node)
        )
        for node in graph.nodes()
    }


def node_index(graph: nx.Graph) -> dict[Hashable, int]:
    """Map nodes to their row index in the canonical (sorted) ordering."""
    return {node: index for index, node in enumerate(sorted(graph.nodes()))}


def coverage(
    graph: nx.Graph, values: Mapping[Hashable, float]
) -> dict[Hashable, float]:
    """For every node, the sum of ``values`` over its closed neighbourhood.

    This is the quantity ``Σ_{j ∈ N_i} x_j`` that appears in the feasibility
    condition of LP_MDS and in the gray/white colouring rule of the
    distributed algorithms.
    """
    return {
        node: sum(values.get(neighbor, 0.0) for neighbor in closed_neighborhood(graph, node))
        for node in graph.nodes()
    }


def validate_simple_graph(graph: nx.Graph) -> None:
    """Raise ``ValueError`` for graphs the simulator cannot execute.

    O(n): self loops are found by one membership test per adjacency dict.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("graph has no nodes")
    if graph.is_directed():
        raise ValueError("graph must be undirected")
    if nx.number_of_selfloops(graph):
        raise ValueError("graph must not contain self loops")


def relabel_to_integers(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to 0..n-1 preserving sorted order of the originals."""
    mapping = {node: index for index, node in enumerate(sorted(graph.nodes()))}
    return nx.relabel_nodes(graph, mapping, copy=True)
