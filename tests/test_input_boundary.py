"""One check and one CSR per networkx input.

``repro.core.vectorized.resolve_bulk_input`` is the one input boundary: a
networkx graph is checked there once with ``validate_simple_graph`` and,
when a bulk engine runs it, converted once with ``BulkGraph.from_graph``;
every phase below the boundary reuses that CSR.  Malformed graphs are
rejected on every path with the messages of ``validate_simple_graph``.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.api import iter_specs, solve
from repro.core.fractional import approximate_fractional_mds
from repro.core.rounding import round_fractional_solution_batched
from repro.core.vectorized import SIMULATED, VECTORIZED
from repro.simulator.fault_schedule import FaultSpec


@pytest.fixture(scope="module")
def connected_graph() -> nx.Graph:
    # Connected, so the connected-dominating-set specs run too.
    return nx.connected_watts_strogatz_graph(40, 4, 0.3, seed=3)


BULK_SPECS = [spec.name for spec in iter_specs() if spec.accepts_bulk]


class TestOneConversionOneCheck:
    @pytest.mark.parametrize("name", BULK_SPECS)
    def test_solve_checks_and_converts_once(self, name, connected_graph, conversions):
        report = solve(name, connected_graph, backend=VECTORIZED, seed=1)
        assert report.backend == VECTORIZED
        assert conversions == {"validate": 1, "from_graph": 1}

    def test_faulted_pipeline_checks_and_converts_once(
        self, connected_graph, conversions
    ):
        faults = FaultSpec(loss_probability=0.1, crash_probability=0.05, seed=4)
        for backend in (VECTORIZED, SIMULATED):
            conversions.clear()
            solve(
                "kuhn-wattenhofer",
                connected_graph,
                backend=backend,
                seed=1,
                k=2,
                faults=faults,
                repair=True,
            )
            assert conversions == {"validate": 1, "from_graph": 1}, backend

    def test_batched_rounding_converts_once(self, connected_graph, conversions):
        x = approximate_fractional_mds(connected_graph, k=2, backend=VECTORIZED).x
        conversions.clear()
        round_fractional_solution_batched(
            connected_graph, x, seeds=[1, 2], backend=VECTORIZED
        )
        assert conversions == {"validate": 1, "from_graph": 1}


def _directed(graph: nx.Graph) -> nx.DiGraph:
    return nx.DiGraph(graph)


def _looped(graph: nx.Graph) -> nx.Graph:
    # Disconnected as well: the input check answers before the
    # connected-dominating-set specs' connectivity gate.
    looped = nx.Graph(graph)
    looped.add_edge(0, 0)
    looped.add_node(graph.number_of_nodes())
    return looped


class TestMalformedInputsRejected:
    """Every registered algorithm, on every backend it has, rejects them."""

    CASES = [
        (spec.name, backend)
        for spec in iter_specs()
        for backend in spec.backends
        if backend != "sharded"
    ]

    @pytest.mark.parametrize("name,backend", CASES)
    def test_self_loops(self, name, backend, connected_graph):
        with pytest.raises(ValueError, match="graph must not contain self loops"):
            solve(name, _looped(connected_graph), backend=backend, seed=0)

    @pytest.mark.parametrize("name,backend", CASES)
    def test_directed(self, name, backend, connected_graph):
        with pytest.raises(ValueError, match="graph must be undirected"):
            solve(name, _directed(connected_graph), backend=backend, seed=0)

    def test_unchecked_csr_is_never_handed_down(self, connected_graph):
        # The coalesced service path builds its CSR through the boundary,
        # so a digraph cannot run silently symmetrised there either.
        from repro.core.fractional_unknown import (
            approximate_fractional_mds_unknown_delta_multi_k,
        )

        with pytest.raises(ValueError, match="graph must be undirected"):
            approximate_fractional_mds_unknown_delta_multi_k(
                _directed(connected_graph), [1, 2], backend=VECTORIZED
            )
