"""The Jia–Rajaraman–Suel LRG algorithm (PODC 2001) -- the paper's comparator.

Before Kuhn–Wattenhofer, the best distributed MDS approximation was the
*Local Randomized Greedy* (LRG) algorithm of Jia, Rajaraman and Suel: an
O(log Δ) expected approximation that terminates in O(log n · log Δ) rounds
with high probability.  The Kuhn–Wattenhofer paper positions itself against
LRG (better round complexity, worse approximation ratio for constant k), so
reproducing the comparison requires an implementation of LRG on the same
simulator.

The implementation below follows the published algorithm's structure:

repeat until every node is covered:
  1. every node computes its *span* d(v) (number of uncovered nodes in its
     closed neighbourhood) and learns the maximum span d_max²(v) within
     distance 2 (two rounds);
  2. v becomes a *candidate* when its span, rounded up to the next power of
     two, is at least d_max²(v) -- i.e. v is within a factor 2 of the local
     maximum ("locally greedy");
  3. every uncovered node u counts the candidates covering it, c(u), and
     reports that count to its neighbours (one round);
  4. every candidate v computes the *median* of c(u) over the uncovered
     nodes u it covers, and joins the dominating set with probability
     1 / median (one round to announce membership);
  5. coverage is updated (one round).

Each phase takes a constant number of rounds, and the number of phases is
O(log n · log Δ) with high probability.  A hard phase cap (default
``4·(log₂ n + 2)·(log₂ Δ + 2)``) backstops the w.h.p. bound; reaching the
cap makes the remaining uncovered nodes join directly, which preserves
correctness (the output is always a dominating set) at a negligible cost in
size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.core.vectorized import (
    SIMULATED,
    VECTORIZED,
    resolve_bulk_input,
    validate_backend,
)
from repro.graphs.utils import max_degree
from repro.simulator.bulk import BulkGraph
from repro.simulator.metrics import ExecutionMetrics
from repro.simulator.network import Network
from repro.simulator.node import NodeContext
from repro.simulator.runtime import SynchronousRunner
from repro.simulator.script import GeneratorNodeProgram


@dataclass(frozen=True)
class LRGResult:
    """Output of one LRG execution.

    Attributes
    ----------
    dominating_set:
        The computed dominating set.
    rounds:
        Synchronous rounds used.
    phases:
        Number of LRG phases executed.
    metrics:
        Message/round metrics.
    """

    dominating_set: frozenset
    rounds: int
    phases: int
    metrics: ExecutionMetrics

    @property
    def size(self) -> int:
        """|DS| of the computed set."""
        return len(self.dominating_set)


def _next_power_of_two(value: int) -> int:
    """Smallest power of two that is ≥ value (1 for value ≤ 1)."""
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def _median_support(values: list[int]) -> float:
    """Median of a non-empty list of support counts.

    Value-identical to ``statistics.median`` (middle element when odd,
    mean of the two middle elements when even) but without its
    type-dispatch and module-call overhead -- this sits in the innermost
    per-candidate loop of every LRG phase, where the list is usually tiny.
    """
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


class LRGProgram(GeneratorNodeProgram):
    """Per-node program implementing the LRG algorithm.

    Parameters
    ----------
    max_phases:
        Hard cap on the number of phases; uncovered nodes join directly when
        it is reached (correctness backstop for the w.h.p. round bound).
    """

    def __init__(self, max_phases: int) -> None:
        super().__init__()
        if max_phases < 1:
            raise ValueError("max_phases must be at least 1")
        self.max_phases = max_phases
        self.in_set = False
        self.covered = False
        self.phases_executed = 0

    def run(self, ctx: NodeContext):
        self.in_set = False
        self.covered = False

        for phase in range(self.max_phases):
            self.phases_executed = phase + 1

            # Step 1a: exchange coverage status so spans can be computed.
            # A neighbour that terminated early sends nothing; termination
            # only happens once a node's whole closed neighbourhood is
            # covered, so a missing message is read as "covered".
            inbox = yield ctx.send_all(self.covered, tag="covered")
            received_covered = self.inbox_by_sender(inbox)
            neighbor_covered = {
                neighbor: received_covered.get(neighbor, True)
                for neighbor in ctx.neighbors
            }
            uncovered_neighbors = {
                neighbor
                for neighbor, is_covered in neighbor_covered.items()
                if not is_covered
            }
            span = len(uncovered_neighbors) + (0 if self.covered else 1)

            # Step 1b/1c: learn the maximum span within distance 2.
            inbox = yield ctx.send_all(span, tag="span")
            neighbor_spans = self.inbox_by_sender(inbox)
            max_span_1 = max([span, *neighbor_spans.values()])

            inbox = yield ctx.send_all(max_span_1, tag="span-max1")
            neighbor_max_1 = self.inbox_by_sender(inbox)
            max_span_2 = max([max_span_1, *neighbor_max_1.values()])

            # Step 2: candidate selection ("locally greedy" nodes).
            is_candidate = (
                span > 0 and not self.in_set and _next_power_of_two(span) >= max_span_2
            )

            # Step 3: uncovered nodes count the candidates covering them.
            inbox = yield ctx.send_all(is_candidate, tag="candidate")
            neighbor_candidate = self.inbox_by_sender(inbox)
            candidate_cover = sum(1 for flag in neighbor_candidate.values() if flag)
            candidate_cover += 1 if is_candidate else 0
            own_count = candidate_cover if not self.covered else 0

            inbox = yield ctx.send_all(own_count, tag="candidate-count")
            neighbor_counts = self.inbox_by_sender(inbox)

            # Step 4: candidates join with probability 1 / median support.
            joined_now = False
            if is_candidate:
                support_counts = [
                    count
                    for neighbor, count in neighbor_counts.items()
                    if neighbor in uncovered_neighbors and count > 0
                ]
                if not self.covered and own_count > 0:
                    support_counts.append(own_count)
                if support_counts:
                    median_support = _median_support(support_counts)
                    probability = min(1.0, 1.0 / max(median_support, 1.0))
                    joined_now = ctx.rng.random() < probability
            if joined_now:
                self.in_set = True

            # Step 5: update coverage.
            inbox = yield ctx.send_all(self.in_set, tag="in-set")
            neighbor_membership = self.inbox_by_sender(inbox)
            if self.in_set or any(neighbor_membership.values()):
                self.covered = True

            # Local termination: once a node and its whole closed
            # neighbourhood are covered, the node can no longer become a
            # candidate (its span is 0) and no neighbour needs its messages
            # any more -- missing messages are interpreted as "covered,
            # not a candidate", which is exactly this node's true state.
            if self.covered and all(neighbor_covered.values()):
                break

        # Backstop: any still-uncovered node joins directly.
        if not self.covered:
            self.in_set = True

        self._result = self.in_set
        return self.in_set


def lrg_dominating_set(
    graph: nx.Graph,
    seed: int | None = None,
    max_phases: int | None = None,
    backend: str = SIMULATED,
    _bulk: BulkGraph | None = None,
) -> LRGResult:
    """Run the Jia–Rajaraman–Suel LRG algorithm on a graph.

    Parameters
    ----------
    graph:
        The network graph.  May also be a CSR
        :class:`~repro.simulator.bulk.BulkGraph`, in which case
        ``backend="vectorized"`` is required.
    seed:
        Seed for the per-node coin flips.
    max_phases:
        Phase cap; defaults to ``4·(⌈log₂ n⌉ + 2)·(⌈log₂(Δ+1)⌉ + 2)``, a
        generous multiple of the w.h.p. phase bound.
    backend:
        ``"simulated"`` drives the per-node message-passing programs;
        ``"vectorized"`` runs the bulk array engine
        (:mod:`repro.baselines.bulk_lrg`).  Both draw each node's coins
        from the same seeded streams, so for a given ``seed`` they select
        the same dominating set in the same number of phases.

    Returns
    -------
    LRGResult
    """
    validate_backend(backend)
    bulk = resolve_bulk_input(graph, backend, _bulk)
    n = graph.n if isinstance(graph, BulkGraph) else graph.number_of_nodes()
    delta = max_degree(bulk or graph)
    if max_phases is None:
        max_phases = 4 * (math.ceil(math.log2(max(n, 2))) + 2) * (
            math.ceil(math.log2(delta + 2)) + 2
        )

    if backend == VECTORIZED:
        from repro.baselines.bulk_lrg import run_lrg_bulk

        in_set, phases, metrics = run_lrg_bulk(bulk, seed=seed, max_phases=max_phases)
        return LRGResult(
            dominating_set=frozenset(
                node for node, joined in zip(bulk.nodes, in_set) if joined
            ),
            rounds=metrics.round_count,
            phases=phases,
            metrics=metrics,
        )

    def factory(node_id: int, network: Network) -> LRGProgram:
        return LRGProgram(max_phases=max_phases)

    network = Network(graph, factory, seed=seed)
    runner = SynchronousRunner(network, max_rounds=7 * max_phases + 10)
    execution = runner.run()
    if not execution.terminated:
        raise RuntimeError("LRG did not terminate within its round budget")

    dominating_set = frozenset(
        node for node, joined in execution.results.items() if joined
    )
    phases = max(
        getattr(network.program(node), "phases_executed", 0)
        for node in network.node_ids
    )
    return LRGResult(
        dominating_set=dominating_set,
        rounds=execution.rounds,
        phases=phases,
        metrics=execution.metrics,
    )
