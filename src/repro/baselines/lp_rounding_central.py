"""Central LP + distributed rounding: the α = 1 reference pipeline.

Theorem 3 is stated for an arbitrary α-approximate fractional solution; its
strongest instantiation feeds Algorithm 1 an *optimal* fractional solution
(α = 1), in which case the expected dominating set size is at most
``(1 + ln(Δ+1))·|DS_OPT|`` -- matching the best possible polynomial-time
guarantee up to lower-order terms (Feige).

This baseline computes the optimal fractional solution centrally with the
LP solver and then rounds it with the same distributed Algorithm 1 used by
the full pipeline.  Comparing it against the distributed pipeline isolates
how much quality is lost to the *distributed* fractional approximation
(Algorithm 2/3) as opposed to the rounding step.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.core.rounding import RoundingResult, RoundingRule, round_fractional_solution
from repro.core.vectorized import SIMULATED, resolve_bulk_input, validate_backend
from repro.lp.solver import LPSolution, solve_fractional_mds


@dataclass(frozen=True)
class CentralLPRoundingResult:
    """Output of the central-LP + rounding baseline.

    Attributes
    ----------
    dominating_set:
        The rounded dominating set.
    lp_solution:
        The optimal fractional solution that was rounded.
    rounding:
        Details of the rounding execution.
    """

    dominating_set: frozenset
    lp_solution: LPSolution
    rounding: RoundingResult

    @property
    def size(self) -> int:
        """|DS| of the rounded set."""
        return len(self.dominating_set)

    @property
    def lp_optimum(self) -> float:
        """The fractional optimum LP_OPT."""
        return self.lp_solution.objective


def central_lp_rounding_dominating_set(
    graph: nx.Graph,
    seed: int | None = None,
    rule: RoundingRule = RoundingRule.LOG,
    backend: str = SIMULATED,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> CentralLPRoundingResult:
    """Solve LP_MDS, then round with distributed Algorithm 1.

    Parameters
    ----------
    graph:
        The network graph.  May also be a CSR
        :class:`~repro.simulator.bulk.BulkGraph` (vectorized backend
        only), in which case the rounding runs on the bulk array engine
        end to end.  The LP is solved on the CSR formulation either way.
    seed:
        Seed for the rounding coin flips.
    rule:
        Probability multiplier rule for Algorithm 1.
    backend:
        Execution backend for the distributed rounding phase; both flip
        the same per-seed coins, so the selected set is backend-invariant.
    lp_method:
        LP solver for the fractional phase: ``"highs"`` (exact, the
        α = 1 instantiation of Theorem 3) or ``"pdhg"``
        (first-order, α = 1 + lp_tol via the verified certificate --
        Theorem 3's guarantee degrades by exactly that factor).
    lp_tol:
        Certified relative duality gap for the first-order methods.

    Returns
    -------
    CentralLPRoundingResult
    """
    validate_backend(backend)
    # One check and one CSR build serve the LP and the rounding.
    bulk = resolve_bulk_input(graph, backend, csr=True)
    lp_solution = solve_fractional_mds(bulk, method=lp_method, tol=lp_tol)
    rounding = round_fractional_solution(
        graph,
        lp_solution.values,
        seed=seed,
        rule=rule,
        require_feasible=True,
        backend=backend,
        _bulk=bulk,
    )
    return CentralLPRoundingResult(
        dominating_set=rounding.dominating_set,
        lp_solution=lp_solution,
        rounding=rounding,
    )
