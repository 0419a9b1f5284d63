"""Weak duality lower bounds on the dominating set size.

Lemma 1 of the paper: assigning ``y_i := 1 / (δ⁽¹⁾_i + 1)`` gives a feasible
solution to the dual packing LP DLP_MDS, and therefore

    Σ_i 1 / (δ⁽¹⁾_i + 1)  ≤  |DS|           for every dominating set DS.

This bound is cheap (purely local), always valid, and is the lower bound the
rounding analysis (Theorem 3) leans on.  For graphs too large for the exact
branch-and-bound solver, benchmarks report ratios against this bound and
against the LP optimum.

Every verified bound is checked on the one CSR formulation of
:func:`~repro.lp.formulation.build_lp`, for networkx and
:class:`~repro.simulator.bulk.BulkGraph` input alike, in O(n + m).
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.graphs.utils import delta_one
from repro.lp.feasibility import check_dual_feasible
from repro.lp.formulation import DominatingSetLP, build_lp


def lemma1_dual_solution(graph: nx.Graph) -> dict[Hashable, float]:
    """The Lemma-1 dual assignment y_i = 1 / (δ⁽¹⁾_i + 1).

    CSR :class:`~repro.simulator.bulk.BulkGraph` inputs read δ⁽¹⁾ from the
    graph's cached degree maxima instead of n closed-neighbourhood scans.
    """
    from repro.graphs.utils import is_bulk_graph

    if is_bulk_graph(graph):
        delta_one_array = graph.degree_maxima()[0]
        return {
            node: 1.0 / (int(value) + 1.0)
            for node, value in zip(graph.nodes, delta_one_array)
        }
    first_level = delta_one(graph)
    return {node: 1.0 / (first_level[node] + 1.0) for node in graph.nodes()}


def lemma1_lower_bound(graph: nx.Graph) -> float:
    """The Lemma-1 lower bound Σ_i 1 / (δ⁽¹⁾_i + 1) ≤ |DS_OPT|."""
    return float(sum(lemma1_dual_solution(graph).values()))


def dual_objective(y: Mapping[Hashable, float]) -> float:
    """The dual objective Σ y_i of an arbitrary dual assignment."""
    return float(sum(y.values()))


def weak_duality_gap(
    lp: DominatingSetLP,
    x: Mapping[Hashable, float] | Sequence[float],
    y: Mapping[Hashable, float] | Sequence[float],
    tolerance: float = 1e-9,
) -> float:
    """The gap ``primal(x) − dual(y)`` for feasible primal/dual pairs.

    Weak duality guarantees the gap is non-negative whenever ``x`` is primal
    feasible and ``y`` is dual feasible; property tests assert exactly that.

    Both objectives and the dual feasibility check run on the CSR
    operators of ``lp`` in O(n + m), making duality certificates routine
    at n ≥ 20 000.

    Raises
    ------
    ValueError
        If ``y`` is not dual feasible (the gap would be meaningless).
    """
    if not check_dual_feasible(lp, y, tolerance=tolerance):
        raise ValueError("y is not a feasible dual solution")
    primal_value = lp.objective(x)
    dual_value = lp.dual_objective(y)
    return float(primal_value - dual_value)


def feasible_dual_projection(
    lp: DominatingSetLP, y: Mapping[Hashable, float] | Sequence[float]
) -> np.ndarray:
    """Project an arbitrary dual assignment onto the DLP_MDS polytope.

    Float round-off (or a first-order iterate captured mid-flight)
    routinely produces duals that are feasible only up to 1e-12ish noise:
    tiny negative entries, packing loads a hair above the weights.  The
    projection repairs any such vector into a *genuinely* feasible one
    while preserving as much of its objective as possible:

    1. clamp negative entries to zero,
    2. zero out the closed neighbourhood of every zero-weight node
       (their packing constraints read ``Σ_{j∈N⁺(i)} y_j ≤ 0``, so no
       amount of scaling could repair mass there),
    3. scale each y_j by ``1 / max(1, max_{i∈N⁺(j)} load_i / w_i)``, the
       worst packing overload among the constraints y_j enters.  Every
       constraint i then holds, because each of its terms shrinks by at
       least ``w_i / load_i``; and each factor is at least the global
       ``min_i w_i / load_i``, so the bound never drops below a uniform
       rescale.

    The result satisfies ``N·y ≤ w`` and ``y ≥ 0`` up to round-off (which
    the 1e-9 verification absorbs); for an already feasible input every
    factor is 1 and steps 1–2 are no-ops, so feasible duals pass through
    unchanged.  With ``y ≡ 1`` and unit weights, step 3 yields exactly
    Lemma 1's ``1 / (δ⁽¹⁾_j + 1)``.
    """
    vector = np.maximum(lp._as_vector(y), 0.0)
    if not vector.any():
        return vector
    zero_weight = lp.weights <= 0.0
    if np.any(zero_weight):
        blocked = lp.coverage(zero_weight.astype(np.float64)) > 0.0
        vector[blocked] = 0.0
        if not vector.any():
            return vector
    load = lp.dual_load(vector)
    # Step 2 left no load on a zero-weight constraint, so 0/0 never occurs.
    overload = np.divide(
        load, lp.weights, out=np.zeros_like(load), where=load > 0.0
    )
    worst = lp.bulk.closed_max(overload)
    np.divide(vector, worst, out=vector, where=worst > 1.0)
    return vector


def certified_lower_bound_lp(
    lp: DominatingSetLP, y: Mapping[Hashable, float] | Sequence[float]
) -> float:
    """A verified lower bound from an arbitrary dual assignment.

    The assignment is first repaired by :func:`feasible_dual_projection`
    (a no-op for feasible inputs), then *re-verified* through
    :func:`~repro.lp.feasibility.check_dual_feasible` before its
    objective is returned -- so the bound is a certificate even when the
    caller handed over a round-off-polluted vector.

    Raises
    ------
    ValueError
        If the projected assignment still fails verification (cannot
        happen for finite inputs; guards NaN/inf poisoning).
    """
    projected = feasible_dual_projection(lp, y)
    if not check_dual_feasible(lp, projected, tolerance=1e-9):
        raise ValueError(
            "dual assignment is not feasible even after projection; "
            "cannot certify bound"
        )
    return float(np.sum(projected))


def certified_lower_bound(graph: nx.Graph, y: Mapping[Hashable, float]) -> float:
    """A verified DLP_MDS lower bound from a per-node dual assignment.

    ``graph`` may be networkx or a CSR
    :class:`~repro.simulator.bulk.BulkGraph`; either way the projection
    and feasibility verification run matrix-free on the CSR formulation
    of :func:`~repro.lp.formulation.build_lp`.  Infeasible assignments --
    negative entries from float round-off, over-packed neighbourhoods -- are
    *clamped* onto the feasible region (projection + per-node rescale,
    see :func:`feasible_dual_projection`) rather than rejected, so the
    returned value is always a valid lower bound; for a feasible input
    it equals ``Σ y_i`` exactly.

    Raises
    ------
    ValueError
        If the assignment cannot be repaired (NaN/inf entries), or if the
        graph is empty or has a self-loop.
    """
    lp = build_lp(graph)
    return certified_lower_bound_lp(lp, y)
