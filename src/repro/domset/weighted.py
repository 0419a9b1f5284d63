"""Weighted dominating set utilities.

The remark after Theorem 4 sketches a weighted variant of Algorithm 2 where
every node v_i carries a cost c_i ∈ [1, c_max] and the objective is the
total cost of the dominating set rather than its cardinality.  The helpers
here compute costs, validate weight maps and report weighted quality against
the weighted LP optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import networkx as nx

from repro.domset.validation import is_dominating_set
from repro.graphs.utils import is_bulk_graph
from repro.lp.solver import solve_weighted_fractional_mds


def validate_weights(
    graph: nx.Graph, weights: Mapping[Hashable, float], c_max: float | None = None
) -> None:
    """Check that every node has a finite cost in [1, c_max].

    The paper's weighted remark normalises costs to lie between 1 and
    c_max; enforcing that keeps the approximation formula
    k(Δ+1)^{1/k}·[c_max(Δ+1)]^{1/k} meaningful.
    """
    node_ids = graph.nodes if is_bulk_graph(graph) else graph.nodes()
    missing = [node for node in node_ids if node not in weights]
    if missing:
        raise ValueError(f"weights missing for nodes: {missing[:5]}")
    for node, cost in weights.items():
        if not math.isfinite(cost):
            raise ValueError(f"node {node!r} has non-finite cost {cost}")
        if cost < 1.0:
            raise ValueError(f"node {node!r} has cost {cost} < 1")
        if c_max is not None and cost > c_max:
            raise ValueError(f"node {node!r} has cost {cost} > c_max = {c_max}")


def weighted_cost(
    weights: Mapping[Hashable, float], dominating_set: Iterable[Hashable]
) -> float:
    """Total cost Σ_{v ∈ DS} c_v of a dominating set."""
    return float(sum(weights[node] for node in set(dominating_set)))


@dataclass(frozen=True)
class WeightedQualityReport:
    """Quality of one weighted dominating set."""

    cost: float
    is_dominating: bool
    lp_optimum: float | None
    ratio_vs_lp: float | None


def weighted_quality(
    graph: nx.Graph,
    weights: Mapping[Hashable, float],
    dominating_set: Iterable[Hashable],
    solve_lp: bool = True,
) -> WeightedQualityReport:
    """Report the cost of a dominating set against the weighted LP optimum."""
    members = frozenset(dominating_set)
    validate_weights(graph, weights)
    cost = weighted_cost(weights, members)
    dominating = is_dominating_set(graph, members)
    lp_optimum: float | None = None
    if solve_lp:
        lp_optimum = solve_weighted_fractional_mds(graph, weights).objective
    ratio = None
    if lp_optimum is not None and lp_optimum > 0:
        ratio = cost / lp_optimum
    return WeightedQualityReport(
        cost=cost,
        is_dominating=dominating,
        lp_optimum=lp_optimum,
        ratio_vs_lp=ratio,
    )
