"""Fractional dominating set optimisation: exact HiGHS + certified first-order.

``LP_OPT = min Σ c_i x_i  s.t.  N·x ≥ 1, x ≥ 0`` is solved with
``scipy.optimize.linprog`` (HiGHS) by default.  The optimum is the
denominator of every measured approximation ratio for the fractional
algorithms and the α = 1 input for the rounding experiments, so this
module is a load-bearing substrate: its output is validated for
feasibility before being returned.

Every solve runs on the CSR formulation of
:func:`~repro.lp.formulation.build_lp`: networkx and
:class:`~repro.simulator.bulk.BulkGraph` inputs alike are solved without
ever building a dense n × n matrix, and HiGHS receives the sparse
N = A + I.  ``method="pdhg"`` routes the solve to the matrix-free
first-order method in :mod:`repro.lp.firstorder` instead:
the returned objective is then ε-optimal with a *verified* duality
certificate (``solution.certificate``) bounding the relative gap by
``tol`` -- the right trade on solver-bound instances at n ≥ 20 000 and
the only option at n ≥ 10⁶, where HiGHS is impractical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Mapping

import networkx as nx
import numpy as np

from repro.lp.formulation import DominatingSetLP, build_lp

if TYPE_CHECKING:  # pragma: no cover
    from repro.lp.firstorder import DualityCertificate
    from repro.simulator.bulk import BulkGraph

#: Method names accepted by the ``method=`` parameter of every solve
#: entry point: exact HiGHS plus the certified first-order method.
LP_METHODS = ("highs", "pdhg")

#: Default certificate tolerance (relative duality gap) for the
#: first-order method; ignored by ``method="highs"``.
DEFAULT_LP_TOL = 1e-3


class LPSolverError(RuntimeError):
    """Raised when scipy fails to solve the dominating set LP."""


@dataclass(frozen=True)
class LPSolution:
    """An optimal fractional dominating set solution.

    Attributes
    ----------
    values:
        Per-node optimal x-values, as a read-only
        :class:`~repro.core.vectorized.NodeValues` view of the solution
        vector in ``lp.nodes`` order (the dict is built only on access).
    objective:
        The optimal objective Σ c_i x_i (``LP_OPT``).
    lp:
        The formulation that was solved (kept for downstream feasibility
        and duality checks).
    """

    values: Mapping[Hashable, float]
    objective: float
    lp: DominatingSetLP
    method: str = "highs"
    dual_values: Mapping[Hashable, float] | None = field(
        default=None, repr=False
    )
    certificate: "DualityCertificate | None" = None

    def as_vector(self) -> np.ndarray:
        """The solution as a vector in the LP's canonical node order."""
        return self.lp.vector_from_mapping(self.values)


def solve_fractional_mds(
    graph: nx.Graph | BulkGraph,
    tolerance: float = 1e-9,
    method: str = "highs",
    tol: float = DEFAULT_LP_TOL,
) -> LPSolution:
    """Solve LP_MDS (unweighted) -- exactly, or to a certified gap.

    Parameters
    ----------
    graph:
        Input graph (networkx or CSR
        :class:`~repro.simulator.bulk.BulkGraph`).
    tolerance:
        Feasibility tolerance used when validating the solver output.
    method:
        ``"highs"`` (exact, default) or ``"pdhg"`` (first-order with a
        verified ε-certificate).
    tol:
        Target relative duality gap for the first-order method.

    Returns
    -------
    LPSolution

    Raises
    ------
    LPSolverError
        If scipy reports failure, returns an infeasible point, or the
        first-order method exhausts its budget uncertified.
    ValueError
        If the graph is empty or has a self-loop.
    """
    return solve_weighted_fractional_mds(
        graph, weights=None, tolerance=tolerance, method=method, tol=tol
    )


#: Alias of :func:`solve_fractional_mds`, which accepts CSR graphs directly.
solve_fractional_mds_sparse = solve_fractional_mds


def solve_weighted_fractional_mds(
    graph: nx.Graph | BulkGraph,
    weights: Mapping[Hashable, float] | None,
    tolerance: float = 1e-9,
    method: str = "highs",
    tol: float = DEFAULT_LP_TOL,
) -> LPSolution:
    """Solve the weighted fractional dominating set LP.

    The weighted variant corresponds to the remark after Theorem 4 in the
    paper: node v_i has cost c_i ≥ 0 and the objective is Σ c_i x_i.

    Parameters
    ----------
    graph:
        Input graph (networkx or CSR
        :class:`~repro.simulator.bulk.BulkGraph`); memory stays O(n + m).
    weights:
        Positive node costs keyed by node; ``None`` means unweighted (all
        ones).  Any other non-mapping raises ``TypeError``.
    tolerance:
        Feasibility tolerance for output validation.
    method:
        ``"highs"`` (exact, default) or ``"pdhg"``, which routes to
        :func:`repro.lp.firstorder.solve_covering_lp`:
        the solution is then ε-optimal with ``solution.certificate``
        carrying the verified relative gap (≤ ``tol``) and
        ``solution.dual_values`` the feasible dual that proves it.
    tol:
        Target relative duality gap for the first-order method.

    Returns
    -------
    LPSolution
    """
    if method not in LP_METHODS:
        raise ValueError(
            f"unknown LP method {method!r}; expected one of "
            + ", ".join(LP_METHODS)
        )
    # Imported here: repro.core imports this module through repro.domset.
    from repro.core.vectorized import NodeValues

    lp = build_lp(graph, weights=weights)
    certificate = dual_values = None
    if method == "highs":
        # Imported here: scipy.optimize is the slowest import of the
        # package and only the exact path needs it.
        from scipy.optimize import linprog

        # linprog minimises c·x subject to A_ub·x ≤ b_ub, so the covering
        # constraint N·x ≥ 1 becomes -N·x ≤ -1.
        result = linprog(
            c=lp.weights,
            A_ub=-lp.neighborhood_matrix(),
            b_ub=-np.ones(lp.size),
            bounds=(0.0, None),
            method="highs",
        )
        if not result.success:
            raise LPSolverError(f"scipy linprog failed: {result.message}")
        # Clip tiny negative values introduced by floating point.
        solution_vector = np.clip(result.x, 0.0, None)
    else:
        from repro.lp.firstorder import ConvergenceError, solve_covering_lp

        try:
            solved = solve_covering_lp(lp, method=method, tol=tol)
        except ConvergenceError as exc:
            raise LPSolverError(str(exc)) from exc
        solution_vector = solved.x
        certificate = solved.certificate
        dual_values = NodeValues(lp.nodes, solved.y)
    feasible, max_violation = lp.bulk.check_lp_feasible(
        solution_vector, tolerance=max(tolerance, 1e-7)
    )
    if not feasible:
        raise LPSolverError(
            f"{method} returned an infeasible point "
            f"(max violation {max_violation:.2e})"
        )
    return LPSolution(
        values=NodeValues(lp.nodes, solution_vector),
        objective=float(lp.weights @ solution_vector),
        lp=lp,
        method=method,
        dual_values=dual_values,
        certificate=certificate,
    )
