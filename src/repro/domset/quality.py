"""Approximation-quality reporting.

A single dominating set can be judged against three different denominators,
in decreasing order of strength:

1. the exact optimum |DS_OPT| (available only for small graphs),
2. the fractional LP optimum LP_OPT ≤ |DS_OPT|, and
3. the Lemma-1 dual lower bound Σ 1/(δ⁽¹⁾_i + 1) ≤ LP_OPT.

Ratios measured against (2) or (3) are *upper bounds* on the true
approximation ratio, so they can safely be compared against the paper's
guarantees: if the measured ratio satisfies the bound, the true ratio does
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

import networkx as nx

from repro.domset.validation import coverage_counts, is_dominating_set
from repro.lp.duality import lemma1_lower_bound
from repro.lp.solver import solve_fractional_mds


@dataclass(frozen=True)
class QualityReport:
    """Quality of one dominating set on one graph.

    Attributes
    ----------
    size:
        |DS| of the evaluated set.
    is_dominating:
        Validation verdict (all other fields are meaningless if False).
    lp_optimum:
        The fractional optimum LP_OPT (None when not computed).
    dual_lower_bound:
        The Lemma-1 bound.
    exact_optimum:
        |DS_OPT| when a ground-truth optimum was supplied.
    ratio_vs_lp:
        size / LP_OPT (None when LP_OPT unavailable or zero).
    ratio_vs_dual:
        size / dual_lower_bound.
    ratio_vs_exact:
        size / |DS_OPT| (None when unavailable).
    mean_coverage:
        Mean closed-neighbourhood coverage count |N_i ∩ S| over all nodes
        -- the redundancy of the set (1.0 would be a perfect partition into
        closed stars; the trivial all-nodes set scores ≈ Δ̄ + 1).
    min_coverage:
        The smallest coverage count (0 iff the set is not dominating).
    """

    size: int
    is_dominating: bool
    lp_optimum: float | None
    dual_lower_bound: float
    exact_optimum: int | None
    ratio_vs_lp: float | None
    ratio_vs_dual: float | None
    ratio_vs_exact: float | None
    mean_coverage: float = 0.0
    min_coverage: int = 0


def quality_report(
    graph: nx.Graph,
    dominating_set: Iterable[Hashable],
    exact_optimum: int | None = None,
    solve_lp: bool = True,
) -> QualityReport:
    """Build a :class:`QualityReport` for one dominating set.

    Parameters
    ----------
    graph:
        The graph the set was computed on.  CSR
        :class:`~repro.simulator.bulk.BulkGraph` inputs are fully
        supported: validation, coverage statistics and the Lemma-1 bound
        run as array sweeps.  The LP denominator (when requested) is
        solved on the CSR formulation for either graph type, so quality
        reporting works unchanged at the n ≥ 20 000 scale.
    dominating_set:
        The candidate set.
    exact_optimum:
        Ground-truth |DS_OPT| if known (e.g. from the branch-and-bound
        solver); enables the strongest ratio.
    solve_lp:
        Whether to solve LP_MDS for the fractional denominator (skip for
        very large graphs).

    Returns
    -------
    QualityReport
    """
    members = frozenset(dominating_set)
    dominating = is_dominating_set(graph, members)
    size = len(members)

    dual_bound = lemma1_lower_bound(graph)
    lp_optimum: float | None = None
    if solve_lp:
        lp_optimum = solve_fractional_mds(graph).objective

    counts = coverage_counts(graph, members)
    mean_coverage = sum(counts.values()) / len(counts) if counts else 0.0
    min_coverage = min(counts.values()) if counts else 0

    def _ratio(denominator: float | int | None) -> float | None:
        if denominator is None or denominator <= 0:
            return None
        return size / float(denominator)

    return QualityReport(
        size=size,
        is_dominating=dominating,
        lp_optimum=lp_optimum,
        dual_lower_bound=dual_bound,
        exact_optimum=exact_optimum,
        ratio_vs_lp=_ratio(lp_optimum),
        ratio_vs_dual=_ratio(dual_bound),
        ratio_vs_exact=_ratio(exact_optimum),
        mean_coverage=mean_coverage,
        min_coverage=min_coverage,
    )
