"""First-order, matrix-free solvers for the covering LP with certificates.

The covering LP behind every dominating set experiment in this repository
is ``min wᵀx  s.t.  N·x ≥ 1, x ≥ 0`` with N = A + I the closed
neighbourhood matrix of a CSR :class:`~repro.simulator.bulk.BulkGraph`.
The exact path (:mod:`repro.lp.solver`) hands that LP to HiGHS, which is
the right tool up to a few thousand nodes but becomes the bottleneck on
the solver-bound rows (grid, random-regular) and is impractical at the
``huge`` suite scale (n ≥ 10⁶).  This module removes the external-solver
floor with two iterative methods running directly on the sparse
neighbourhood operator:

* :data:`PDHG` -- Chambolle–Pock primal-dual hybrid gradient on the
  saddle form ``min_{x≥0} max_{y≥0} wᵀx + yᵀ(1 − N·x)``, diagonally
  preconditioned with the Pock–Chambolle α = 1 steps
  ``τ_j = σ_j = 1/(δ_j + 1)``: the column and row sums of N, which bound
  ``‖diag(σ)^½ N diag(τ)^½‖ ≤ 1`` by construction, so no operator-norm
  estimate is needed.
* :data:`MWU` -- multiplicative weights / fractional covering in the
  spirit of the paper's own LP-relaxation lens: constraint weights
  ``y_i ∝ exp(η(1 − coverage_i))`` concentrate on the least covered
  nodes, and every near-best-ratio variable is incremented per round
  (Young-style parallel covering).

Both methods share one termination contract: ε-optimality is a
**verified certificate**, never a promise.  Every ``check_every``
iterations the raw iterates are turned into a genuinely feasible
primal/dual pair by local repairs -- the primal both by rescaling onto
the covering polytope and by topping up every uncovered constraint with
its own variable (the fractional form of Algorithm 1's "join if
uncovered" step), keeping the cheaper; the dual by
:func:`~repro.lp.duality.feasible_dual_projection` (clamp at zero, then
scale each y_j by its worst closed-neighbourhood packing load) -- and
every candidate is re-checked through the *existing* helpers
:func:`~repro.lp.feasibility.check_primal_feasible` /
:func:`~repro.lp.feasibility.check_dual_feasible`; the final bound is
re-derived through :func:`~repro.lp.duality.certified_lower_bound_lp`.
The solve returns only when ``wᵀx ≤ (1 + tol) · Σy`` holds for that
verified pair, so the reported gap bounds the true suboptimality by weak
duality no matter what the iteration dynamics did.

The inner loops are allocation-free: all iterate and scratch vectors are
preallocated float64 arrays, and the matvec accumulates into a
preallocated output through scipy's in-place CSR kernel, reusing the
one cached :func:`~repro.lp.formulation.neighborhood_csr_matrix` of the
formulation across the solve and certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.lp.duality import certified_lower_bound_lp, feasible_dual_projection
from repro.lp.feasibility import check_dual_feasible, check_primal_feasible

if TYPE_CHECKING:  # pragma: no cover
    from repro.lp.formulation import DominatingSetLP

try:  # scipy's templated in-place kernel: y += A @ x, no allocation.
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _CSR_MATVEC = _scipy_sparsetools.csr_matvec
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _CSR_MATVEC = None

#: Method names accepted by :func:`solve_covering_lp`.
PDHG = "pdhg"
MWU = "mwu"
FIRST_ORDER_METHODS = (PDHG, MWU)

#: Iteration budgets (the verified-gap check is the real stop condition;
#: these only bound a run that fails to converge before it spins forever).
_MAX_ITERATIONS = {PDHG: 200_000, MWU: 200_000}
_CHECK_EVERY = {PDHG: 50, MWU: 250}


class FirstOrderError(RuntimeError):
    """Raised when a first-order covering LP solve cannot proceed."""


class ConvergenceError(FirstOrderError):
    """Raised when the iteration budget runs out before certification.

    Carries the best verified certificate seen so far (may be ``None``
    when not even one feasible primal/dual pair was produced).
    """

    def __init__(self, message: str, certificate: "DualityCertificate | None"):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class DualityCertificate:
    """A verified ε-optimality certificate for one covering LP solve.

    The contract: ``primal_objective`` and ``dual_objective`` belong to a
    primal/dual pair that passed
    :func:`~repro.lp.feasibility.check_primal_feasible` and
    :func:`~repro.lp.feasibility.check_dual_feasible` at ``tolerance``,
    so by weak duality ``dual_objective ≤ LP_OPT ≤ primal_objective`` and
    the solution is within a factor ``1 + gap`` of optimal.
    """

    method: str
    tol: float
    primal_objective: float
    dual_objective: float
    gap: float
    iterations: int
    certified: bool
    operator_norm: float

    def as_dict(self) -> dict:
        """JSON-ready payload (what the benchmarks persist and CI gates)."""
        return {
            "method": self.method,
            "tol": self.tol,
            "primal_objective": self.primal_objective,
            "certified_lower_bound": self.dual_objective,
            "certified_gap": self.gap,
            "iterations": self.iterations,
            "certified": self.certified,
            "operator_norm": self.operator_norm,
        }


@dataclass(frozen=True)
class FirstOrderSolution:
    """Raw vectors + certificate of one :func:`solve_covering_lp` call."""

    x: np.ndarray
    y: np.ndarray
    certificate: DualityCertificate


def _matvec(matrix, vector: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out = matrix @ vector`` into a preallocated buffer."""
    if _CSR_MATVEC is None:  # pragma: no cover - scipy without the kernel
        out[:] = matrix @ vector
        return out
    out[:] = 0.0
    _CSR_MATVEC(
        matrix.shape[0],
        matrix.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        vector,
        out,
    )
    return out


def _feasible_primal_candidates(
    x: np.ndarray, coverage: np.ndarray
) -> list[np.ndarray]:
    """Local repairs of a raw non-negative iterate onto the covering polytope.

    * The rescale ``x / min_i coverage_i``: N is entrywise non-negative,
      so it covers whenever the minimum coverage is positive, and scaling
      *down* an over-covering iterate improves the objective.
    * The patch ``x + max(0, 1 − N·x)``: N_ii = 1 and N ≥ 0 give
      ``N·(x + d) ≥ N·x + d ≥ 1`` -- the fractional form of Algorithm 1's
      "join if uncovered" step, which only pays where coverage is short.
    """
    patch = x + np.maximum(1.0 - coverage, 0.0)
    worst = float(coverage.min())
    if worst <= 1e-300:
        return [patch]
    return [x / worst, patch]


class _PairTracker:
    """Best verified primal/dual pair seen across certification checks.

    Weak duality pairs *any* feasible primal with *any* feasible dual, so
    the tightest certificate combines the best primal and the best dual
    regardless of which iteration produced each.  Every offered candidate
    is verified through the canonical
    :func:`~repro.lp.feasibility.check_primal_feasible` /
    :func:`~repro.lp.feasibility.check_dual_feasible` before it can
    enter the pair -- unverified iterates never influence the result.
    """

    def __init__(self, lp: "DominatingSetLP", method: str, tol: float):
        self.lp = lp
        self.method = method
        self.tol = tol
        # The row-sum bound ‖N‖₂ ≤ Δ + 1, recorded on every certificate.
        self.norm = float(lp.bulk.max_degree + 1)
        self.primal_objective = float("inf")
        self.primal: np.ndarray | None = None
        self.dual_objective = float("-inf")
        self.dual: np.ndarray | None = None

    def offer_primal(self, x: np.ndarray, coverage: np.ndarray) -> None:
        """Offer a raw primal iterate: keep its cheapest verified repair."""
        for candidate in _feasible_primal_candidates(x, coverage):
            objective = float(self.lp.weights @ candidate)
            if objective < self.primal_objective and check_primal_feasible(
                self.lp, candidate, tolerance=1e-9
            ):
                self.primal_objective = objective
                self.primal = candidate

    def offer_dual(self, y: np.ndarray) -> None:
        """Offer a raw dual candidate (verified after projection)."""
        candidate = feasible_dual_projection(self.lp, y)
        if not check_dual_feasible(self.lp, candidate, tolerance=1e-9):
            return
        objective = float(np.sum(candidate))
        if objective > self.dual_objective:
            self.dual_objective = objective
            self.dual = candidate

    def certificate(self, iterations: int) -> DualityCertificate | None:
        """The certificate of the current best pair (None before one exists)."""
        if self.primal is None or self.dual is None:
            return None
        gap = _relative_gap(self.primal_objective, self.dual_objective)
        return DualityCertificate(
            method=self.method,
            tol=self.tol,
            primal_objective=self.primal_objective,
            dual_objective=self.dual_objective,
            gap=gap,
            iterations=iterations,
            certified=gap <= self.tol,
            operator_norm=self.norm,
        )


def _relative_gap(primal: float, dual: float) -> float:
    """The certified relative gap ``(primal − dual) / dual`` (≥ 0).

    A zero dual bound with a zero primal objective (the all-zero-weight
    LP) is gap 0; a zero dual bound against a positive primal is an
    infinite gap -- no certificate.
    """
    if dual > 0.0:
        return max(0.0, primal - dual) / dual
    return 0.0 if primal <= 1e-300 else float("inf")


def _validate(lp: "DominatingSetLP", method: str, tol: float) -> None:
    if method not in FIRST_ORDER_METHODS:
        raise ValueError(
            f"unknown first-order method {method!r}; expected one of "
            + ", ".join(FIRST_ORDER_METHODS)
        )
    if not tol > 0.0:
        raise ValueError(
            f"tol must be positive for first-order solves (got {tol!r}); "
            "a tol of 0 needs the exact solver -- use method='highs'"
        )
    if np.any(~np.isfinite(lp.weights)):
        raise FirstOrderError("weights must be finite")


def solve_covering_lp(
    lp: "DominatingSetLP",
    method: str = PDHG,
    tol: float = 1e-3,
    max_iterations: int | None = None,
    check_every: int | None = None,
) -> FirstOrderSolution:
    """Solve the covering LP of ``lp`` to a *certified* relative gap.

    Parameters
    ----------
    lp:
        The CSR-backed formulation (weights may include zeros).
    method:
        ``"pdhg"`` or ``"mwu"``.
    tol:
        Target relative duality gap; the returned pair satisfies
        ``wᵀx ≤ (1 + tol) Σy`` with both points *verified* feasible.
        Must be positive -- exactness belongs to the HiGHS path.
    max_iterations / check_every:
        Iteration budget and certification cadence (method defaults).

    Raises
    ------
    ConvergenceError
        When the budget is exhausted before a certificate at ``tol``;
        the best verified certificate so far rides on the exception.
    """
    _validate(lp, method, tol)
    budget = _MAX_ITERATIONS[method] if max_iterations is None else max_iterations
    cadence = _CHECK_EVERY[method] if check_every is None else max(1, check_every)
    if method == PDHG:
        return _solve_pdhg(lp, tol, budget, cadence)
    return _solve_mwu(lp, tol, budget, cadence)


def _prepare(lp: "DominatingSetLP"):
    """Shared setup: cached CSR, δ⁽¹⁾-based warm starts, zero-weight presolve.

    A zero-weight variable costs nothing and covers its whole closed
    neighbourhood, so ``x_j = 1`` for every ``w_j = 0`` is optimal for
    those coordinates; both methods then only move the positive-cost
    coordinates.
    """
    matrix = lp.neighborhood_matrix()
    n = lp.size
    weights = lp.weights
    delta_one = lp.bulk.closed_max(lp.bulk.degrees.astype(np.float64))
    inverse_closed = 1.0 / (delta_one + 1.0)
    x = inverse_closed.copy()
    x[weights <= 0.0] = 1.0
    y = np.minimum(weights, 1.0) * inverse_closed
    return matrix, n, weights, x, y


def _solve_pdhg(
    lp: "DominatingSetLP", tol: float, budget: int, cadence: int
) -> FirstOrderSolution:
    """Chambolle–Pock on ``min_{x≥0} max_{y≥0} wᵀx + yᵀ(1 − Nx)``."""
    matrix, n, weights, x, y = _prepare(lp)
    # Pock–Chambolle α = 1: τ_j = σ_j = 1/(δ_j + 1), the column and row
    # sums of N, give ‖diag(σ)^½ N diag(τ)^½‖ ≤ 1 with no norm estimate.
    step = 1.0 / (lp.bulk.degrees + 1.0)

    x_old = np.empty(n)
    x_bar = x.copy()
    n_x = np.empty(n)
    n_y = np.empty(n)
    coverage = np.empty(n)

    tracker = _PairTracker(lp, PDHG, tol)
    _matvec(matrix, x, coverage)
    tracker.offer_primal(x, coverage)
    tracker.offer_dual(y)
    certificate = tracker.certificate(0)
    if certificate is not None and certificate.certified:
        return _finalize(lp, tracker, certificate)
    iteration = 0
    while iteration < budget:
        limit = min(iteration + cadence, budget)
        while iteration < limit:
            # y ← [y + σ(1 − N x̄)]₊
            _matvec(matrix, x_bar, n_x)
            np.subtract(1.0, n_x, out=n_x)
            n_x *= step
            y += n_x
            np.maximum(y, 0.0, out=y)
            # x ← [x − τ(w − N y)]₊
            x_old[:] = x
            _matvec(matrix, y, n_y)
            np.subtract(n_y, weights, out=n_y)
            n_y *= step
            x += n_y
            np.maximum(x, 0.0, out=x)
            # x̄ ← 2x − x_old (extrapolation)
            np.multiply(x, 2.0, out=x_bar)
            x_bar -= x_old
            iteration += 1
        _matvec(matrix, x, coverage)
        tracker.offer_primal(x, coverage)
        tracker.offer_dual(y)
        certificate = tracker.certificate(iteration)
        if certificate is not None and certificate.certified:
            return _finalize(lp, tracker, certificate)
    best = tracker.certificate(iteration)
    raise ConvergenceError(
        f"pdhg did not reach a certified gap of {tol} within {budget} "
        f"iterations (best verified gap: "
        f"{best.gap if best else float('inf'):.3e})",
        best,
    )


def _solve_mwu(
    lp: "DominatingSetLP", tol: float, budget: int, cadence: int
) -> FirstOrderSolution:
    """Multiplicative weights on constraints, parallel covering increments.

    Constraint weights ``y_i ∝ exp(η(1 − coverage_i))`` concentrate on the
    least covered nodes; every variable whose weighted coverage gain per
    unit cost is within ``(1 − ε)`` of the best is incremented by a step
    sized so no constraint's coverage moves by more than ``ε/η`` -- the
    classic width-controlled parallel covering update.  Dual candidates
    are the instantaneous exponential weights, their normalized running
    average (the quantity the MWU regret analysis actually bounds), and
    the Lemma-1 warm start -- each pushed through
    :func:`~repro.lp.duality.feasible_dual_projection` and verified; the
    tracker keeps whichever certifies best.
    """
    matrix, n, weights, x, y_seed = _prepare(lp)
    # Certification, not the regret analysis, is the stop condition, so ε
    # can sit at the aggressive end; η = ln(n)/ε is the classic width.
    epsilon = min(0.25, max(tol / 2.0, 1e-3))
    eta = np.log(max(n, 2)) / epsilon
    step_cap = epsilon / eta

    positive = weights > 0.0
    # MWU mass is monotone non-decreasing, so paid coordinates must start
    # from zero -- any surplus warm-start mass could never be removed and
    # would wedge the primal objective above a certifiable level.
    x[positive] = 0.0
    safe_weights = np.where(positive, weights, np.inf)
    coverage = np.empty(n)
    deficit = np.empty(n)
    y = np.empty(n)
    y_avg = np.zeros(n)
    y_unit = np.empty(n)
    gain = np.empty(n)
    chosen = np.empty(n)
    increment = np.empty(n)

    tracker = _PairTracker(lp, MWU, tol)
    tracker.offer_dual(y_seed)
    _matvec(matrix, x, coverage)
    tracker.offer_primal(x, coverage)
    certificate = tracker.certificate(0)
    if certificate is not None and certificate.certified:
        return _finalize(lp, tracker, certificate)
    iteration = 0
    while iteration < budget:
        advanced = False
        limit = min(iteration + cadence, budget)
        while iteration < limit:
            _matvec(matrix, x, coverage)
            # y_i ∝ exp(η(1 − c_i)), rescaled by the max exponent so the
            # weights stay representable at any coverage profile.
            np.subtract(1.0, coverage, out=deficit)
            deficit *= eta
            deficit -= deficit.max()
            np.exp(deficit, out=y, where=deficit > -60.0)
            y[deficit <= -60.0] = 0.0
            # Normalized running average: the MWU distribution's mean
            # direction, usually a far better dual than any single round.
            np.divide(y, y.sum(), out=y_unit)
            y_avg += y_unit
            # Per-variable weighted gain (N y)_j / w_j.
            _matvec(matrix, y, gain)
            gain /= safe_weights
            top = float(gain.max())
            if top <= 0.0:
                break
            selected = gain >= (1.0 - epsilon) * top
            chosen[:] = 0.0
            chosen[selected] = 1.0
            # Step size: no constraint's coverage may move by more than ε/η.
            _matvec(matrix, chosen, increment)
            per_unit = float(increment.max())
            if per_unit <= 0.0:
                break
            chosen *= step_cap / per_unit
            x += chosen
            iteration += 1
            advanced = True
        _matvec(matrix, x, coverage)
        tracker.offer_primal(x, coverage)
        if advanced:
            tracker.offer_dual(y)
            tracker.offer_dual(y_avg)
        certificate = tracker.certificate(iteration)
        if certificate is not None and certificate.certified:
            return _finalize(lp, tracker, certificate)
        if not advanced:
            # Every gain is zero (all-free or unreachable columns): more
            # rounds cannot change anything.
            break
    best = tracker.certificate(iteration)
    raise ConvergenceError(
        f"mwu did not reach a certified gap of {tol} within {budget} "
        f"iterations (best verified gap: "
        f"{best.gap if best else float('inf'):.3e}); multiplicative "
        "weights certifies loose tolerances quickly but tightens slowly "
        "-- prefer method='pdhg' for tight gaps",
        best,
    )


def _finalize(
    lp: "DominatingSetLP",
    tracker: _PairTracker,
    certificate: DualityCertificate,
) -> FirstOrderSolution:
    """Re-derive the final bound through the canonical certification helper.

    :func:`~repro.lp.duality.certified_lower_bound_lp` re-projects and
    re-verifies the dual independently of anything the iteration loop
    did, so the certificate the caller receives is anchored in the same
    code path every other certificate in the repository uses.
    """
    bound = certified_lower_bound_lp(lp, tracker.dual)
    if not bound <= certificate.primal_objective + 1e-9:
        raise FirstOrderError(  # pragma: no cover - weak duality violation
            "certification helper disagrees with the verified pair"
        )
    return FirstOrderSolution(
        x=tracker.primal, y=tracker.dual, certificate=certificate
    )
