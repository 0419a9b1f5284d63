"""Shared fixtures for the test suite.

The fixtures provide a few canonical graphs of different shapes that are
reused across modules:

* ``small_random_graph`` -- a sparse G(n, p) instance with ~30 nodes,
* ``unit_disk`` -- a moderately dense unit disk graph,
* ``star`` / ``path`` / ``clique`` / ``grid`` -- structured graphs with
  known optimal dominating sets,
* ``tiny_suite`` -- the whole tiny graph collection used for sweep tests.

``conversions`` counts the input checks and networkx -> CSR conversions a
test makes.
"""

from __future__ import annotations

import sys
from collections import Counter

import networkx as nx
import pytest

import repro.graphs.utils as graph_utils
from repro.simulator.bulk import BulkGraph

from repro.graphs.generators import (
    caterpillar_graph,
    erdos_renyi_graph,
    graph_suite,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.unit_disk import random_unit_disk_graph


@pytest.fixture
def small_random_graph() -> nx.Graph:
    """A sparse random graph with isolated vertices possible."""
    return erdos_renyi_graph(30, 0.12, seed=7)


@pytest.fixture
def unit_disk() -> nx.Graph:
    """A moderately dense unit disk graph (the ad-hoc network model)."""
    return random_unit_disk_graph(40, radius=0.3, seed=11)


@pytest.fixture
def star() -> nx.Graph:
    """A star with 10 leaves: |DS_OPT| = 1 (the hub)."""
    return star_graph(10)


@pytest.fixture
def path() -> nx.Graph:
    """A path on 9 nodes: |DS_OPT| = 3."""
    return path_graph(9)


@pytest.fixture
def clique() -> nx.Graph:
    """A complete graph on 6 nodes: |DS_OPT| = 1."""
    return nx.complete_graph(6)


@pytest.fixture
def grid() -> nx.Graph:
    """A 4x4 grid."""
    return grid_graph(4, 4)


@pytest.fixture
def caterpillar() -> nx.Graph:
    """A caterpillar graph: spine of 6 with 2 legs each."""
    return caterpillar_graph(6, 2)


@pytest.fixture
def tiny_suite() -> dict[str, nx.Graph]:
    """The tiny benchmark suite (used by slower sweep-style tests)."""
    return graph_suite("tiny", seed=5)


@pytest.fixture
def conversions(monkeypatch) -> Counter:
    """Count ``validate_simple_graph`` and ``BulkGraph.from_graph`` calls."""
    counts: Counter = Counter()
    check = graph_utils.validate_simple_graph

    def counted_check(graph):
        counts["validate"] += 1
        return check(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "validate_simple_graph", None) is check
        ):
            monkeypatch.setattr(module, "validate_simple_graph", counted_check)
    from_graph = BulkGraph.from_graph.__func__

    def counted_from_graph(cls, graph):
        counts["from_graph"] += 1
        return from_graph(cls, graph)

    monkeypatch.setattr(BulkGraph, "from_graph", classmethod(counted_from_graph))
    return counts
