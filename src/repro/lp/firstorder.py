"""Certified first-order solver for the covering LP: restarted Halpern PDHG.

The covering LP behind every dominating set experiment in this repository
is ``min wᵀx  s.t.  N·x ≥ 1, x ≥ 0`` with N = A + I the closed
neighbourhood matrix of a CSR :class:`~repro.simulator.bulk.BulkGraph`.
The exact path (:mod:`repro.lp.solver`) hands that LP to HiGHS, which is
the right tool up to a few thousand nodes but becomes the bottleneck on
the solver-bound rows (grid, random-regular) and is impractical at the
``huge`` suite scale (n ≥ 10⁶).  This module removes the external-solver
floor with one iterative method running directly on the sparse
neighbourhood operator, :data:`PDHG`:

* **The operator.**  One primal-dual hybrid gradient step T on the saddle
  form ``min_{x≥0} max_{y≥0} wᵀx + yᵀ(1 − N·x)``::

      x' = [x − τ(w − N y)]₊,    y' = [y + σ(1 − N(2x' − x))]₊

  diagonally preconditioned with the Pock–Chambolle α = 1 steps
  ``τ_j = σ_j = 1/(δ_j + 1)``: the column and row sums of N, which bound
  ``‖diag(σ)^½ N diag(τ)^½‖ ≤ 1`` by construction, so no operator-norm
  estimate is needed.  Each step costs two sparse matvecs, run on a
  degree-ordered copy M of N (below).
* **Reflected Halpern iteration** (Lu & Yang, "Restarted Halpern PDHG for
  Linear Programming", 2024).  With z = (x, y) and the anchor z₀, every
  iteration is ``z ← (k+1)/(k+2) · (2T(z) − z) + 1/(k+2) · z₀``: the
  reflection doubles the step, and the pull towards the anchor turns
  PDHG's ergodic O(1/k) into a last-iterate one.
* **Adaptive restarts** (the PDLP constants of Applegate et al., 2021).
  At every certification check the verified gap of the pair built from
  T(z) is compared with the gap at the last restart; the anchor moves to
  T(z) and k resets to 0 when the gap has shrunk by 0.2, or by 0.8 and
  started to rise again, or when the epoch has run for 36% of all
  iterations.  Restarts give the linear convergence of sharp LPs.

The termination contract: ε-optimality is a **verified certificate**,
never a promise.  Every :data:`_CHECK_EVERY` iterations T(z) is turned
into a genuinely feasible primal/dual pair by local repairs -- the
primal both by rescaling onto the covering polytope and by topping up
every uncovered constraint with its own variable (the fractional form of
Algorithm 1's "join if uncovered" step), keeping the cheaper; the dual by
:func:`~repro.lp.duality.feasible_dual_projection` (clamp at zero, then
scale each y_j by its worst closed-neighbourhood packing load) -- and
every candidate is re-checked through the *existing* helpers
:func:`~repro.lp.feasibility.check_primal_feasible` /
:func:`~repro.lp.feasibility.check_dual_feasible`; the final bound is
re-derived through :func:`~repro.lp.duality.certified_lower_bound_lp`.
The solve returns only when ``wᵀx ≤ (1 + tol) · Σy`` holds for the best
verified pair, so the reported gap bounds the true suboptimality by weak
duality no matter what the iteration dynamics did.

The inner loop is allocation-free: all iterate and scratch vectors are
preallocated float64 arrays, and the matvec accumulates into a
preallocated output through scipy's in-place CSR kernel.  It runs on M,
the cached :func:`~repro.lp.formulation.neighborhood_csr_matrix` N with
its rows sorted by length and relabelled (HiGHS and every check keep N).
With the iterates in cache (n = 2·10⁴) scipy's row loop is bound by the
branch at each row's end, which mispredicts on Poisson row lengths;
sorted rows cut a matvec 1.3–1.9x there and ≈ 1.1x at n = 2·10⁵.  Each
row keeps N's terms in N's order and the tracker sees canonical vectors,
so every iterate, certificate, x and y is bitwise the canonical order's.
"""

from __future__ import annotations

import numbers
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
FIRST_ORDER_METHODS = (PDHG,)

#: Iteration budget (the verified-gap check is the real stop condition;
#: this only bounds a run that fails to converge before it spins forever).
_MAX_ITERATIONS = 200_000
#: Iterations between certification checks (and restart decisions).
_CHECK_EVERY = 50
#: PDLP's restart constants: restart on a sufficient gap decay, on a
#: necessary decay whose gap has started to rise, or on a long epoch.
_RESTART_SUFFICIENT = 0.2
_RESTART_NECESSARY = 0.8
_RESTART_ARTIFICIAL = 0.36


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


def _degree_ordered(matrix):
    """N with its rows in ascending length order: ``(M, order, inverse)``.

    Row r of M is row ``order[r]`` of N, its entries in N's order and its
    columns relabelled through ``inverse``, so ``M @ v[order]`` equals
    ``(N @ v)[order]`` bit for bit: each row adds the same terms in the
    same order.  M shares N's data and keeps its index dtype.
    """
    from scipy import sparse
    from scipy.sparse import _sparsetools

    lengths = np.diff(matrix.indptr)
    order = np.argsort(lengths, kind="stable").astype(lengths.dtype)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size, dtype=order.dtype)
    # Filled in place: scipy's constructor would narrow int64 indices.
    ordered = sparse.csr_matrix(matrix.shape)
    ordered.data = matrix.data
    ordered.indptr = np.zeros_like(matrix.indptr)
    np.cumsum(lengths[order], out=ordered.indptr[1:])
    ordered.indices = np.empty_like(matrix.indices)
    # scipy's row gather carries a value per entry: one zero byte each.
    values = np.zeros(matrix.indices.size, dtype=bool)
    _sparsetools.csr_row_index(
        order.size, order, matrix.indptr, matrix.indices, values,
        ordered.indices, values,
    )
    np.take(inverse, ordered.indices, out=ordered.indices, mode="clip")
    return ordered, order, inverse


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

    def offer_primal(self, x: np.ndarray, coverage: np.ndarray) -> float:
        """Offer a raw primal iterate; return its cheapest verified repair's cost.

        The best primal is replaced only by a cheaper verified candidate;
        the return value (``inf`` when no candidate verifies) is the
        candidate's own objective, whether or not it became the best.
        """
        priced = [
            (float(self.lp.weights @ candidate), candidate)
            for candidate in _feasible_primal_candidates(x, coverage)
        ]
        for objective, candidate in sorted(priced, key=lambda pair: pair[0]):
            if check_primal_feasible(self.lp, candidate, tolerance=1e-9):
                if objective < self.primal_objective:
                    self.primal_objective = objective
                    self.primal = candidate
                return objective
        return float("inf")

    def offer_dual(self, y: np.ndarray) -> float:
        """Offer a raw dual candidate; return its verified projection's bound.

        Returns ``-inf`` when the projection fails verification.
        """
        candidate = feasible_dual_projection(self.lp, y)
        if not check_dual_feasible(self.lp, candidate, tolerance=1e-9):
            return float("-inf")
        objective = float(np.sum(candidate))
        if objective > self.dual_objective:
            self.dual_objective = objective
            self.dual = candidate
        return objective

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


def _validate(
    lp: "DominatingSetLP", method: str, tol: float, max_iterations: int | None
) -> None:
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
    if max_iterations is not None and (
        isinstance(max_iterations, bool)
        or not isinstance(max_iterations, numbers.Integral)
        or max_iterations < 1
    ):
        raise ValueError(
            f"max_iterations must be a positive int (got {max_iterations!r})"
        )
    if np.any(~np.isfinite(lp.weights)):
        raise FirstOrderError("weights must be finite")


def solve_covering_lp(
    lp: "DominatingSetLP",
    method: str = PDHG,
    tol: float = 1e-3,
    max_iterations: int | None = None,
) -> FirstOrderSolution:
    """Solve the covering LP of ``lp`` to a *certified* relative gap.

    Parameters
    ----------
    lp:
        The CSR-backed formulation (weights may include zeros).
    method:
        ``"pdhg"`` (restarted reflected-Halpern PDHG).
    tol:
        Target relative duality gap; the returned pair satisfies
        ``wᵀx ≤ (1 + tol) Σy`` with both points *verified* feasible.
        Must be positive -- exactness belongs to the HiGHS path.
    max_iterations:
        Iteration budget, a positive int (default :data:`_MAX_ITERATIONS`).

    Raises
    ------
    ConvergenceError
        When the budget is exhausted before a certificate at ``tol``;
        the best verified certificate so far rides on the exception.
    """
    _validate(lp, method, tol, max_iterations)
    budget = _MAX_ITERATIONS if max_iterations is None else max_iterations
    return _solve_pdhg(lp, tol, budget)


def _solve_pdhg(lp: "DominatingSetLP", tol: float, budget: int) -> FirstOrderSolution:
    """Restarted reflected-Halpern PDHG on the saddle form of the covering LP.

    Warm start: Lemma 1's ``x = 1/(δ⁽¹⁾ + 1)`` and ``y = min(w, 1)/(δ⁽¹⁾ + 1)``,
    with ``x_j = 1`` for every zero-weight variable -- it costs nothing
    and covers its whole closed neighbourhood.
    """
    matrix = lp.neighborhood_matrix()
    n = lp.size
    weights = lp.weights
    delta_one = lp.bulk.degree_maxima()[0]
    inverse_closed = 1.0 / (delta_one + 1.0)
    x = inverse_closed.copy()
    x[weights <= 0.0] = 1.0
    y = np.minimum(weights, 1.0) * inverse_closed
    # Pock–Chambolle α = 1: τ_j = σ_j = 1/(δ_j + 1), the column and row
    # sums of N, give ‖diag(σ)^½ N diag(τ)^½‖ ≤ 1 with no norm estimate.
    step = 1.0 / (lp.bulk.degrees + 1.0)

    x_step = np.empty(n)  # the primal half of T(z)
    y_step = np.empty(n)  # the dual half of T(z)
    x_bar = np.empty(n)  # 2x' − x: the extrapolation and the reflection
    coverage = np.empty(n)

    tracker = _PairTracker(lp, PDHG, tol)
    _matvec(matrix, x, coverage)
    restart_gap = previous_gap = _relative_gap(
        tracker.offer_primal(x, coverage), tracker.offer_dual(y)
    )
    certificate = tracker.certificate(0)
    if certificate is not None and certificate.certified:
        return _finalize(lp, tracker, certificate)
    # The iteration runs in degree order; the tracker sees canonical vectors.
    matrix, order, inverse = _degree_ordered(matrix)
    x, y, weights, step = x[order], y[order], weights[order], step[order]
    x_anchor = x.copy()
    y_anchor = y.copy()
    iteration = 0
    epoch = 0  # k: iterations since the last restart
    while iteration < budget:
        # T(z): x' ← [x − τ(w − N y)]₊, y' ← [y + σ(1 − N(2x' − x))]₊
        _matvec(matrix, y, x_step)
        x_step -= weights
        x_step *= step
        x_step += x
        np.maximum(x_step, 0.0, out=x_step)
        np.multiply(x_step, 2.0, out=x_bar)
        x_bar -= x
        _matvec(matrix, x_bar, y_step)
        np.subtract(1.0, y_step, out=y_step)
        y_step *= step
        y_step += y
        np.maximum(y_step, 0.0, out=y_step)
        iteration += 1
        epoch += 1
        if iteration % _CHECK_EVERY == 0 or iteration == budget:
            _matvec(matrix, x_step, coverage)
            gap = _relative_gap(
                tracker.offer_primal(x_step[inverse], coverage[inverse]),
                tracker.offer_dual(y_step[inverse]),
            )
            certificate = tracker.certificate(iteration)
            if certificate is not None and certificate.certified:
                return _finalize(lp, tracker, certificate)
            restart = (
                gap <= _RESTART_SUFFICIENT * restart_gap
                or (gap <= _RESTART_NECESSARY * restart_gap and gap > previous_gap)
                or epoch >= _RESTART_ARTIFICIAL * iteration
            )
            previous_gap = gap
            if restart:
                restart_gap = gap
                epoch = 0
                x_anchor[:] = x_step
                y_anchor[:] = y_step
                x[:] = x_step
                y[:] = y_step
                continue
        # z ← (k+1)/(k+2) · (2T(z) − z) + 1/(k+2) · z₀, with k = epoch − 1.
        pull = epoch / (epoch + 1.0)
        np.subtract(x_bar, x_anchor, out=x)
        x *= pull
        x += x_anchor
        np.subtract(y_step, y, out=y)
        y += y_step
        y -= y_anchor
        y *= pull
        y += y_anchor
    best = tracker.certificate(iteration)
    raise ConvergenceError(
        f"pdhg did not reach a certified gap of {tol} within {budget} "
        f"iterations (best verified gap: "
        f"{best.gap if best else float('inf'):.3e})",
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
