"""Linear-programming substrate for the dominating set problem.

Section 4 of the paper derives three mathematical programs:

* ``IP_MDS`` -- the minimum dominating set integer program
  (minimise Σ x_i subject to N·x ≥ 1, x ∈ {0,1}ⁿ),
* ``LP_MDS`` -- its LP relaxation (x ≥ 0), and
* ``DLP_MDS`` -- the dual packing LP (maximise Σ y_i subject to N·y ≤ 1,
  y ≥ 0), whose feasible solutions lower-bound |DS_OPT| by weak duality
  (Lemma 1).

This package turns those three programs into code:

* :mod:`~repro.lp.formulation` -- the one formulation, built on the CSR
  arrays of a :class:`~repro.simulator.bulk.BulkGraph` (networkx input is
  converted once): canonical node order, weights, and N·x computed as
  ``x + neighbor_sum(x)`` in O(n + m) -- no dense n × n matrix, at any n.
  The exact solver, the checks and the tests that verify the distributed
  algorithms' outputs against the constraint system all use it.
* :mod:`~repro.lp.solver` -- exact fractional optima via ``scipy`` linear
  programming on either graph type, used as the baseline α = 1 input to
  Algorithm 1 and as the denominator for measured approximation ratios.
* :mod:`~repro.lp.feasibility` -- primal and dual feasibility checks with
  numerical tolerances.
* :mod:`~repro.lp.duality` -- the Lemma 1 lower bound and general
  weak-duality utilities.
* :mod:`~repro.lp.firstorder` -- the certified first-order solver
  (restarted reflected-Halpern PDHG) running matrix-free on the CSR
  operators: each solve terminates on a *verified* duality gap, so ε-optimality is a
  certificate, and the ``huge`` suite (n ≥ 10⁶) certifies without an
  external LP solver.
"""

from repro.lp.duality import (
    certified_lower_bound,
    certified_lower_bound_lp,
    dual_objective,
    feasible_dual_projection,
    lemma1_dual_solution,
    lemma1_lower_bound,
    weak_duality_gap,
)
from repro.lp.firstorder import (
    FIRST_ORDER_METHODS,
    ConvergenceError,
    DualityCertificate,
    FirstOrderSolution,
    solve_covering_lp,
)
from repro.lp.feasibility import (
    check_dual_feasible,
    check_primal_feasible,
    primal_violations,
)
from repro.lp.formulation import DominatingSetLP, build_lp
from repro.lp.solver import (
    DEFAULT_LP_TOL,
    LP_METHODS,
    LPSolution,
    solve_fractional_mds,
    solve_fractional_mds_sparse,
    solve_weighted_fractional_mds,
)

__all__ = [
    "ConvergenceError",
    "DEFAULT_LP_TOL",
    "DominatingSetLP",
    "DualityCertificate",
    "FIRST_ORDER_METHODS",
    "FirstOrderSolution",
    "LPSolution",
    "LP_METHODS",
    "build_lp",
    "certified_lower_bound",
    "certified_lower_bound_lp",
    "check_dual_feasible",
    "check_primal_feasible",
    "dual_objective",
    "feasible_dual_projection",
    "lemma1_dual_solution",
    "lemma1_lower_bound",
    "primal_violations",
    "solve_covering_lp",
    "solve_fractional_mds",
    "solve_fractional_mds_sparse",
    "solve_weighted_fractional_mds",
    "weak_duality_gap",
]
