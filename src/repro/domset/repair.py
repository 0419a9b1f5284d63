"""Self-healing repair of fault-degraded dominating sets.

Under fault injection the pipeline's output can fail to dominate: a
crashed node never runs Algorithm 1's fallback step, and its neighbours
may all have declined to join.  This module patches such a set back to
feasibility and quantifies the degradation:

* **violation detection** is one CSR sweep -- a node is uncovered iff its
  closed neighbourhood contains no member;
* the **patch** is a greedy cover of the uncovered nodes, driven by a
  bucket queue over closed-neighbourhood gains (the highest-gain node
  joins first, ties broken by CSR position), so repair stays
  O(n + m + Δ·patch) at the n ≥ 20 000 fault-sweep scale;
* the :class:`RepairReport` carries the degradation metrics the fault
  benchmarks gate on: coverage deficit, objective inflation, and the
  modeled repair rounds.

Repair models the *post-stabilization* healing phase of a self-stabilizing
deployment: it runs after the fault horizon, so previously crashed nodes
may rejoin the patch (without this, an isolated crashed node could never
be re-dominated and no repair would exist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

import networkx as nx
import numpy as np

from repro.graphs.utils import is_bulk_graph
from repro.simulator.bulk import BulkGraph


@dataclass(frozen=True)
class RepairReport:
    """Outcome and degradation metrics of one repair pass.

    Attributes
    ----------
    repaired_set:
        The input set plus the patch; always dominating.
    patched_nodes:
        The nodes the greedy patch added (disjoint from the input set).
    coverage_deficit:
        Number of uncovered nodes *before* repair (0 = input was fine).
    objective_before / objective_after:
        |S| before and after the patch.
    objective_inflation:
        ``objective_after / objective_before`` (``inf`` when the input
        set was empty but the patch is not).
    repair_rounds:
        Modeled round cost of the healing phase: one detection exchange
        plus one announcement per greedy selection (the selections are
        sequentially dependent -- each changes the gains later picks
        see); 0 when the input already dominates.
    feasible_after:
        Whether the repaired set dominates (always ``True`` -- recorded
        so reports can be gated without re-validating).
    """

    repaired_set: frozenset
    patched_nodes: frozenset
    coverage_deficit: int
    objective_before: int
    objective_after: int
    objective_inflation: float
    repair_rounds: int
    feasible_after: bool

    @property
    def was_degraded(self) -> bool:
        """Whether the input set needed any repair at all."""
        return self.coverage_deficit > 0


def repair_dominating_set(
    graph: nx.Graph, candidate: Iterable[Hashable]
) -> RepairReport:
    """Patch ``candidate`` into a dominating set of ``graph``.

    ``graph`` may be a networkx graph or a CSR
    :class:`~repro.simulator.bulk.BulkGraph`; both run the identical CSR
    repair, so the patch (and every metric) is the same for a graph and
    its CSR form.  Candidate nodes outside the graph raise ``ValueError``.
    """
    bulk = graph if is_bulk_graph(graph) else BulkGraph.from_graph(graph)
    members = set(candidate)
    flags = bulk.member_mask(members)

    uncovered = ~(flags | bulk.neighbor_any(flags))
    deficit = int(np.count_nonzero(uncovered))
    objective_before = len(members)
    if deficit == 0:
        return RepairReport(
            repaired_set=frozenset(members),
            patched_nodes=frozenset(),
            coverage_deficit=0,
            objective_before=objective_before,
            objective_after=objective_before,
            objective_inflation=1.0 if objective_before else 1.0,
            repair_rounds=0,
            feasible_after=True,
        )

    # Greedy cover of the uncovered nodes.  gain[v] = |N[v] ∩ uncovered|;
    # a bucket queue with lazy revalidation pops the current maximum in
    # O(1) amortized, and every cover event decrements the gains of the
    # covered node's closed neighbourhood.
    gain = (bulk.neighbor_count(uncovered) + uncovered).astype(np.int64)
    col = bulk.col.tolist()
    indptr = bulk.indptr
    gain_list = gain.tolist()
    uncovered_list = uncovered.tolist()
    max_gain = int(gain.max())
    buckets: list[list[int]] = [[] for _ in range(max_gain + 1)]
    # Filling buckets in descending position order makes each bucket pop
    # (list.pop() from the tail) yield the smallest position first --
    # a deterministic tie-break matching "lowest node id wins".
    for position in range(bulk.n - 1, -1, -1):
        if gain_list[position] > 0:
            buckets[gain_list[position]].append(position)

    patch: list[int] = []
    remaining = deficit
    current = max_gain
    while remaining > 0:
        while not buckets[current]:
            current -= 1
        position = buckets[current].pop()
        actual = gain_list[position]
        if actual != current:
            # Stale entry: its gain decayed since insertion; refile.
            if actual > 0:
                buckets[actual].append(position)
            continue
        patch.append(position)
        # Cover every still-uncovered node of the chosen closed
        # neighbourhood and decay the gains its coverage supported.
        closed = col[indptr[position] : indptr[position + 1]] + [position]
        for node in closed:
            if not uncovered_list[node]:
                continue
            uncovered_list[node] = False
            remaining -= 1
            for supporter in col[indptr[node] : indptr[node + 1]]:
                gain_list[supporter] -= 1
            gain_list[node] -= 1

    patched = frozenset(bulk.nodes[position] for position in patch)
    repaired = frozenset(members | patched)
    objective_after = len(repaired)
    if objective_before:
        inflation = objective_after / objective_before
    else:
        inflation = float("inf") if objective_after else 1.0
    return RepairReport(
        repaired_set=repaired,
        patched_nodes=patched,
        coverage_deficit=deficit,
        objective_before=objective_before,
        objective_after=objective_after,
        objective_inflation=inflation,
        repair_rounds=1 + len(patch),
        feasible_after=True,
    )
