"""Greedy set cover -- the generalisation underlying greedy dominating set.

The MDS problem is the special case of minimum set cover in which the
universe is V and the available sets are the closed neighbourhoods N_i.
Several components reuse the general set cover form:

* the exact branch-and-bound solver reduces sub-problems to partial covers,
* the quality analysis reports the classical H_s harmonic bound, and
* tests cross-check that ``greedy_dominating_set`` equals
  ``greedy_set_cover`` applied to closed neighbourhoods.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.graphs.utils import closed_neighborhoods, validate_simple_graph


def greedy_set_cover(
    universe: Iterable[Hashable],
    sets: Mapping[Hashable, frozenset],
) -> list[Hashable]:
    """Greedy set cover: repeatedly take the set covering most new elements.

    Parameters
    ----------
    universe:
        The elements that must be covered.
    sets:
        Mapping from set identifier to the elements it contains.

    Returns
    -------
    list
        Identifiers of the chosen sets, in pick order.  Ties are broken by
        set identifier for determinism.

    Raises
    ------
    ValueError
        If the union of all sets does not cover the universe.
    """
    remaining = set(universe)
    covered_by_all = set()
    for members in sets.values():
        covered_by_all |= members
    if not remaining <= covered_by_all:
        missing = remaining - covered_by_all
        raise ValueError(f"universe cannot be covered; missing elements: {sorted(missing)[:5]}")

    chosen: list[Hashable] = []
    while remaining:
        best_id = None
        best_gain = 0
        for set_id in sorted(sets):
            gain = len(sets[set_id] & remaining)
            if gain > best_gain:
                best_gain = gain
                best_id = set_id
        chosen.append(best_id)
        remaining -= sets[best_id]
    return chosen


def greedy_set_cover_dominating_set(graph: nx.Graph) -> frozenset:
    """Dominating set obtained by running set cover greedy on N_i sets."""
    validate_simple_graph(graph)
    neighborhoods = {
        node: frozenset(members) for node, members in closed_neighborhoods(graph).items()
    }
    return frozenset(greedy_set_cover(graph.nodes(), neighborhoods))


def harmonic_number(s: int) -> float:
    """H_s = Σ_{i=1..s} 1/i, the classical greedy set cover bound factor."""
    if s < 0:
        raise ValueError("s must be non-negative")
    return float(sum(1.0 / i for i in range(1, s + 1)))


def greedy_guarantee(graph: nx.Graph) -> float:
    """The greedy approximation guarantee H_{Δ+1} ≈ ln Δ for a graph."""
    if graph.number_of_nodes() == 0:
        raise ValueError("graph has no nodes")
    max_degree = max(degree for _, degree in graph.degree())
    return harmonic_number(max_degree + 1)
