"""The Wu–Li marking algorithm (DialM 1999).

The paper's related-work section cites Wu & Li's constant-round *connected*
dominating set algorithm as an example of a fast distributed algorithm
without a non-trivial approximation guarantee.  The algorithm is strikingly
simple:

1. every node learns its neighbours' neighbour lists (2 rounds), and
2. a node *marks* itself iff it has two neighbours that are not adjacent.

For a connected graph that is not complete, the marked nodes form a
connected dominating set.  The optional pruning rules 1 and 2 from the same
paper remove marked nodes whose closed neighbourhood is subsumed by a
neighbouring marked node (rule 1) or by two connected marked neighbours
(rule 2), using node ids to break ties.

Because the guarantee only holds for connected, non-complete graphs, the
wrapper exposes ``ensure_domination``: when enabled, any node left
undominated (complete components, isolated nodes) simply adds itself, which
keeps the output a valid dominating set on arbitrary graphs at the cost of
deviating from the original algorithm on those degenerate components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.core.vectorized import (
    SIMULATED,
    VECTORIZED,
    resolve_bulk_input,
    validate_backend,
)
from repro.domset.validation import uncovered_nodes
from repro.simulator.bulk import BulkGraph
from repro.simulator.metrics import ExecutionMetrics
from repro.simulator.network import Network
from repro.simulator.node import NodeContext
from repro.simulator.runtime import SynchronousRunner
from repro.simulator.script import GeneratorNodeProgram


@dataclass(frozen=True)
class WuLiResult:
    """Output of one Wu–Li execution.

    Attributes
    ----------
    dominating_set:
        The final (possibly pruned, possibly completed) set.
    marked:
        Nodes marked by the basic rule, before pruning/completion.
    rounds:
        Synchronous rounds used.
    metrics:
        Message/round metrics.
    """

    dominating_set: frozenset
    marked: frozenset
    rounds: int
    metrics: ExecutionMetrics

    @property
    def size(self) -> int:
        """|DS| of the final set."""
        return len(self.dominating_set)


class WuLiProgram(GeneratorNodeProgram):
    """Per-node program implementing Wu–Li marking with optional pruning."""

    def __init__(self, apply_pruning: bool = True) -> None:
        super().__init__()
        self.apply_pruning = apply_pruning
        self.marked = False
        self.final_member = False

    def run(self, ctx: NodeContext):
        # Round 1: exchange neighbour lists so every node knows its 2-hop
        # topology (open neighbour lists are O(Δ log n) bits -- Wu-Li is not
        # a small-message algorithm, unlike Kuhn-Wattenhofer).
        inbox = yield ctx.send_all(list(ctx.neighbors), tag="neighbor-list")
        neighbor_lists = {
            sender: frozenset(payload)
            for sender, payload in self.inbox_by_sender(inbox).items()
        }

        # Marking rule: marked iff two neighbours are not adjacent.
        self.marked = False
        neighbors = ctx.neighbors
        for index, u in enumerate(neighbors):
            for v in neighbors[index + 1 :]:
                if v not in neighbor_lists.get(u, frozenset()):
                    self.marked = True
                    break
            if self.marked:
                break

        # Round 2: announce marking so the pruning rules can be evaluated.
        inbox = yield ctx.send_all(self.marked, tag="marked")
        neighbor_marked = self.inbox_by_sender(inbox)

        self.final_member = self.marked
        if self.apply_pruning and self.marked:
            marked_neighbors = sorted(
                neighbor
                for neighbor, is_marked in neighbor_marked.items()
                if is_marked
            )
            my_closed = frozenset((ctx.node_id, *ctx.neighbors))

            # Rule 1: unmark if a single marked neighbour with a higher id
            # covers the whole closed neighbourhood.
            for neighbor in marked_neighbors:
                if neighbor <= ctx.node_id:
                    continue
                neighbor_closed = neighbor_lists[neighbor] | {neighbor}
                if my_closed <= neighbor_closed:
                    self.final_member = False
                    break

            # Rule 2: unmark if two *adjacent* marked neighbours with higher
            # ids jointly cover the closed neighbourhood.
            if self.final_member:
                for index, u in enumerate(marked_neighbors):
                    if u <= ctx.node_id:
                        continue
                    for v in marked_neighbors[index + 1 :]:
                        if v <= ctx.node_id:
                            continue
                        if v not in neighbor_lists[u]:
                            continue
                        joint = (
                            neighbor_lists[u] | {u} | neighbor_lists[v] | {v}
                        )
                        if my_closed <= joint:
                            self.final_member = False
                            break
                    if not self.final_member:
                        break

        self._result = self.final_member
        return self.final_member


def wu_li_dominating_set(
    graph: nx.Graph,
    apply_pruning: bool = True,
    ensure_domination: bool = True,
    seed: int | None = None,
    backend: str = SIMULATED,
    _bulk: BulkGraph | None = None,
) -> WuLiResult:
    """Run the Wu–Li marking algorithm.

    Parameters
    ----------
    graph:
        The network graph.  May also be a CSR
        :class:`~repro.simulator.bulk.BulkGraph`, in which case
        ``backend="vectorized"`` is required.
    apply_pruning:
        Apply pruning rules 1 and 2 after marking.
    ensure_domination:
        Add any node left undominated to the output set.  The original
        algorithm guarantees domination only for connected non-complete
        graphs; this flag extends validity to arbitrary inputs (documented
        deviation, disabled for faithfulness tests).
    seed:
        Seed for per-node randomness (unused -- the algorithm is
        deterministic -- but accepted for interface symmetry).
    backend:
        ``"simulated"`` drives the per-node message-passing programs;
        ``"vectorized"`` computes the identical marking and pruning
        decisions on the CSR (:mod:`repro.baselines.bulk_wu_li`).

    Returns
    -------
    WuLiResult
    """
    validate_backend(backend)
    bulk = resolve_bulk_input(graph, backend, _bulk)

    if backend == VECTORIZED:
        from repro.baselines.bulk_wu_li import run_wu_li_bulk

        final, marked_flags, metrics = run_wu_li_bulk(
            bulk, apply_pruning=apply_pruning
        )
        if ensure_domination:
            final = final | ~(final | bulk.neighbor_any(final))
        return WuLiResult(
            dominating_set=frozenset(
                node for node, selected in zip(bulk.nodes, final) if selected
            ),
            marked=frozenset(
                node for node, flag in zip(bulk.nodes, marked_flags) if flag
            ),
            rounds=metrics.round_count,
            metrics=metrics,
        )

    def factory(node_id: int, network: Network) -> WuLiProgram:
        return WuLiProgram(apply_pruning=apply_pruning)

    network = Network(graph, factory, seed=seed)
    runner = SynchronousRunner(network, max_rounds=10)
    execution = runner.run()
    if not execution.terminated:
        raise RuntimeError("Wu-Li did not terminate within its round budget")

    members = {node for node, selected in execution.results.items() if selected}
    marked = frozenset(
        node
        for node in network.node_ids
        if getattr(network.program(node), "marked", False)
    )
    if ensure_domination:
        members |= uncovered_nodes(graph, members)
    return WuLiResult(
        dominating_set=frozenset(members),
        marked=marked,
        rounds=execution.rounds,
        metrics=execution.metrics,
    )
