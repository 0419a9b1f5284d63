"""Primal and dual feasibility checks for the dominating set LPs.

The distributed algorithms' correctness claims (Theorems 4 and 5) have two
parts: the produced x-vector is *feasible* for LP_MDS, and its objective is
within the stated factor of the optimum.  These helpers check the first part
with explicit numerical tolerances; they are used by unit tests, property
tests, benchmarks and the end-to-end pipeline's self-checks.

Every check operates through the formulation's ``coverage`` / ``dual_load``
operators, which evaluate N·x on the CSR adjacency in O(n + m) without
materialising a constraint matrix; that is what makes feasibility
certification routine at n ≥ 20 000.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.lp.formulation import DominatingSetLP


def check_primal_feasible(
    lp: DominatingSetLP,
    x: Mapping[Hashable, float] | Sequence[float],
    tolerance: float = 1e-9,
    return_violation: bool = False,
) -> bool | tuple[bool, float]:
    """Check ``N·x ≥ 1`` and ``x ≥ 0`` up to ``tolerance``.

    Parameters
    ----------
    lp:
        The LP formulation.
    x:
        Candidate primal solution (mapping or canonical-order vector).
    tolerance:
        Allowed constraint violation.
    return_violation:
        When true, also return the largest violation found.

    Returns
    -------
    bool | tuple[bool, float]
        Feasibility verdict, optionally with the maximum violation.
    """
    vector = lp._as_vector(x)
    nonnegativity_violation = float(np.max(np.maximum(-vector, 0.0), initial=0.0))
    coverage = lp.coverage(vector)
    coverage_violation = float(np.max(np.maximum(1.0 - coverage, 0.0), initial=0.0))
    max_violation = max(nonnegativity_violation, coverage_violation)
    feasible = max_violation <= tolerance
    if return_violation:
        return feasible, max_violation
    return feasible


def check_dual_feasible(
    lp: DominatingSetLP,
    y: Mapping[Hashable, float] | Sequence[float],
    tolerance: float = 1e-9,
    return_violation: bool = False,
) -> bool | tuple[bool, float]:
    """Check ``N·y ≤ weights`` and ``y ≥ 0`` up to ``tolerance``.

    For the unweighted problem the right-hand side is the all-ones vector,
    matching DLP_MDS in the paper.  For the weighted variant, the dual
    constraint of variable x_i is Σ_{j ∈ N_i} y_j ≤ c_i.
    """
    vector = lp._as_vector(y)
    nonnegativity_violation = float(np.max(np.maximum(-vector, 0.0), initial=0.0))
    load = lp.dual_load(vector)
    packing_violation = float(np.max(np.maximum(load - lp.weights, 0.0), initial=0.0))
    max_violation = max(nonnegativity_violation, packing_violation)
    feasible = max_violation <= tolerance
    if return_violation:
        return feasible, max_violation
    return feasible


def primal_violations(
    lp: DominatingSetLP,
    x: Mapping[Hashable, float] | Sequence[float],
    tolerance: float = 1e-9,
) -> dict[Hashable, float]:
    """Per-node coverage shortfalls ``max(0, 1 - Σ_{j∈N_i} x_j)`` above tolerance.

    Useful for diagnosing *which* nodes a buggy algorithm left uncovered.
    """
    vector = lp._as_vector(x)
    coverage = lp.coverage(vector)
    shortfall = np.maximum(1.0 - coverage, 0.0)
    return {
        node: float(value)
        for node, value in zip(lp.nodes, shortfall)
        if value > tolerance
    }
