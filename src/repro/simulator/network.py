"""Network: the static communication graph plus per-node programs.

A :class:`Network` couples a :class:`networkx.Graph` with one
:class:`~repro.simulator.node.NodeProgram` instance per node and the
per-node :class:`~repro.simulator.node.NodeContext` objects the programs
see.  It performs the (purely structural) validation that the rest of the
simulator relies on: node identifiers are hashable and stable, programs
exist for every node, and each node's neighbour list is sorted so that
executions are deterministic.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import networkx as nx

from repro.simulator.coins import CoinStream, coin_key
from repro.simulator.node import NodeContext, NodeProgram

ProgramFactory = Callable[[int, "Network"], NodeProgram]


class Network:
    """The communication graph and the algorithm instances running on it.

    Parameters
    ----------
    graph:
        The (undirected, simple) communication graph.  Self loops are
        rejected: the paper's closed neighbourhood already includes the node
        itself, so a self loop would double-count it.
    program_factory:
        Callable ``(node_id, network) -> NodeProgram`` constructing the
        local algorithm for each node.  The network is passed so factories
        can hand global constants (such as Δ for Algorithm 2) to programs,
        mirroring the paper's "all nodes know Δ" assumption.
    seed:
        Seed for the per-node coin streams.  The seed is hashed into one
        run key (:func:`~repro.simulator.coins.coin_key`; ``None`` draws a
        fresh one), and the node at position ``i`` of :attr:`node_ids`
        draws ``u(key, i, 0), u(key, i, 1), ...``, so runs are
        reproducible and match the bulk backends flip for flip.
    """

    def __init__(
        self,
        graph: nx.Graph,
        program_factory: ProgramFactory,
        seed: int | None = None,
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise ValueError("network graph must contain at least one node")
        if any(u == v for u, v in graph.edges()):
            raise ValueError("network graph must not contain self loops")
        if graph.is_directed():
            raise ValueError("network graph must be undirected")

        self._graph = graph
        self._seed = seed
        self._node_ids: tuple[int, ...] = tuple(sorted(graph.nodes()))
        self._contexts: dict[int, NodeContext] = {}
        self._programs: dict[int, NodeProgram] = {}

        key = coin_key(seed)
        for position, node_id in enumerate(self._node_ids):
            neighbors = tuple(sorted(graph.neighbors(node_id)))
            # Each node draws from the counter-keyed stream of its position
            # in sorted node order -- the index the bulk backends use.
            self._contexts[node_id] = NodeContext(
                node_id=node_id, neighbors=neighbors, rng=CoinStream(key, position)
            )
        # Programs are built after contexts so factories may inspect them.
        for node_id in self._node_ids:
            self._programs[node_id] = program_factory(node_id, self)

    # ------------------------------------------------------------------ #
    # Structure                                                           #
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> nx.Graph:
        """The underlying communication graph."""
        return self._graph

    @property
    def node_ids(self) -> tuple[int, ...]:
        """All node identifiers, sorted ascending."""
        return self._node_ids

    @property
    def node_count(self) -> int:
        """Number of nodes n."""
        return len(self._node_ids)

    @property
    def max_degree(self) -> int:
        """The maximum degree Δ of the graph."""
        return max(degree for _, degree in self._graph.degree())

    def degree(self, node_id: int) -> int:
        """Degree δ_i of a node."""
        return self._graph.degree(node_id)

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        """Open neighbourhood of a node, sorted."""
        return self._contexts[node_id].neighbors

    def closed_neighborhood(self, node_id: int) -> tuple[int, ...]:
        """Closed neighbourhood N_i = {v_i} ∪ neighbours."""
        return self._contexts[node_id].closed_neighborhood

    # ------------------------------------------------------------------ #
    # Programs                                                            #
    # ------------------------------------------------------------------ #

    def context(self, node_id: int) -> NodeContext:
        """The :class:`NodeContext` of a node."""
        return self._contexts[node_id]

    def program(self, node_id: int) -> NodeProgram:
        """The :class:`NodeProgram` instance of a node."""
        return self._programs[node_id]

    def programs(self) -> Mapping[int, NodeProgram]:
        """All program instances keyed by node id."""
        return dict(self._programs)

    def results(self) -> dict[int, object]:
        """Collect each node's local output (``program.result()``)."""
        return {node_id: self._programs[node_id].result() for node_id in self._node_ids}

    def all_terminated(self) -> bool:
        """Whether every node program reports termination."""
        return all(
            self._programs[node_id].is_terminated() for node_id in self._node_ids
        )

    # ------------------------------------------------------------------ #
    # Convenience constructors                                            #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        program_factory: ProgramFactory,
        isolated_nodes: Iterable[int] = (),
        seed: int | None = None,
    ) -> "Network":
        """Build a network from an edge list plus optional isolated nodes."""
        graph = nx.Graph()
        graph.add_nodes_from(isolated_nodes)
        graph.add_edges_from(edges)
        return cls(graph, program_factory, seed=seed)
