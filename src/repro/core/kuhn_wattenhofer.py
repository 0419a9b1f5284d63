"""The end-to-end Kuhn–Wattenhofer dominating set pipeline (Theorem 6).

The paper's headline result composes the two building blocks:

1. run a distributed fractional approximation of LP_MDS
   (Algorithm 3 when Δ is unknown; Algorithm 2 when it is known), then
2. round the fractional solution with Algorithm 1.

Theorem 6: the expected size of the resulting dominating set is
``O(k · Δ^{2/k} · log Δ) · |DS_OPT|`` and the whole computation takes
``O(k²)`` rounds with per-node message complexity ``O(k² Δ)`` and message
size ``O(log Δ)``.

Setting ``k = Θ(log Δ)`` (final remark of the paper) yields an
``O(log² Δ)`` approximation in ``O(log² Δ)`` rounds;
:func:`log_delta_parameter` computes that choice of k.

This module is the main public entry point of the library:
:func:`kuhn_wattenhofer_dominating_set` runs the full pipeline and returns a
validated dominating set together with every statistic the benchmarks need.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import networkx as nx

from repro.core.fractional import FractionalResult, approximate_fractional_mds
from repro.core.fractional_unknown import approximate_fractional_mds_unknown_delta
from repro.core.rounding import (
    RoundingResult,
    RoundingRule,
    round_fractional_solution,
    solution_feasibility,
)
from repro.core.vectorized import (
    BACKENDS,
    ROUNDING_EXCHANGES,
    SHARDED,
    SIMULATED,
    VECTORIZED,
    CapabilityError,
    algorithm2_exchanges,
    algorithm3_exchanges,
    bulk_engine,
    resolve_bulk_input,
    validate_backend,
    validate_k,
)
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSpec
from repro.domset.repair import RepairReport, repair_dominating_set
from repro.domset.validation import is_dominating_set


class FractionalVariant(str, enum.Enum):
    """Which distributed LP approximation feeds the rounding step."""

    #: Algorithm 2 -- assumes every node knows the global maximum degree Δ.
    KNOWN_DELTA = "known_delta"
    #: Algorithm 3 -- uses only 2-hop-local information (the default).
    UNKNOWN_DELTA = "unknown_delta"


@dataclass(frozen=True)
class PipelineResult:
    """Everything produced by one end-to-end pipeline execution.

    Attributes
    ----------
    dominating_set:
        The final (validated) dominating set.
    fractional:
        The result of the LP approximation phase.
    rounding:
        The result of the randomized rounding phase.
    total_rounds:
        Rounds used by both phases combined.
    total_messages:
        Messages sent by both phases combined.
    max_message_bits:
        Largest message payload observed across both phases.
    k:
        Locality parameter used.
    max_degree:
        Maximum degree Δ of the input graph.
    """

    dominating_set: frozenset
    fractional: FractionalResult
    rounding: RoundingResult
    total_rounds: int
    total_messages: int
    max_message_bits: int
    k: int
    max_degree: int
    #: Repair outcome when a fault-degraded run was patched back to
    #: feasibility (``None`` for fault-free runs or ``repair=False``).
    #: Per-phase fault summaries live on ``fractional.faults`` and
    #: ``rounding.faults``.
    repair: RepairReport | None = None

    @property
    def size(self) -> int:
        """|DS| of the final dominating set."""
        return len(self.dominating_set)


def log_delta_parameter(delta: int) -> int:
    """The k = Θ(log Δ) choice from the paper's final remark.

    We use ``k = max(1, ⌈ln(Δ + 1)⌉)``, which makes ``(Δ+1)^{1/k} ≤ e`` and
    therefore turns the Theorem-5 ratio into ``O(log Δ)`` and the Theorem-6
    ratio into ``O(log² Δ)``.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return max(1, math.ceil(math.log(delta + 1.0)))


def kuhn_wattenhofer_dominating_set(
    graph: nx.Graph,
    k: int | None = None,
    seed: int | None = None,
    variant: FractionalVariant = FractionalVariant.UNKNOWN_DELTA,
    rounding_rule: RoundingRule = RoundingRule.LOG,
    collect_trace: bool = False,
    backend: str = SIMULATED,
    shards: int | None = None,
    faults: FaultSpec | None = None,
    repair: bool = True,
    _bulk: BulkGraph | None = None,
) -> PipelineResult:
    """Compute a dominating set with the full Kuhn–Wattenhofer pipeline.

    Parameters
    ----------
    graph:
        The network graph (undirected, simple, non-empty).  May also be a
        CSR :class:`~repro.simulator.bulk.BulkGraph` (e.g. from
        :mod:`repro.graphs.bulk`), in which case ``backend="vectorized"``
        or ``"sharded"`` is required and no networkx graph is ever
        materialised.
    k:
        Locality parameter.  ``None`` selects the paper's
        ``k = Θ(log Δ)`` default (:func:`log_delta_parameter`).
    seed:
        Seed for the randomized rounding coin flips (and for per-node
        generators in general).
    variant:
        Which fractional algorithm to use (Algorithm 2 or Algorithm 3).
    rounding_rule:
        Probability multiplier for Algorithm 1.
    collect_trace:
        Record an execution trace of the fractional phase (needed for
        invariant checking; adds memory overhead).  The simulated backend
        records event objects, the vectorized backend columnar arrays --
        see :mod:`repro.simulator.columnar`.
    backend:
        ``"simulated"`` drives both phases through the message-passing
        simulator; ``"vectorized"`` uses the bulk-synchronous array engine
        for both (same x-vectors and, for a given seed, the same coin
        flips -- so the same dominating set -- at a fraction of the cost);
        ``"sharded"`` partitions the CSR across worker processes and runs
        both phases as bulk-synchronous supersteps, producing bitwise the
        same result as ``"vectorized"`` for any shard count.
    shards:
        Worker process count for the sharded backend (``None`` picks one
        per available CPU).  Only valid with ``backend="sharded"``.
    faults:
        Optional :class:`~repro.simulator.fault_schedule.FaultSpec`
        injecting message loss and crash-stop failures into *both* phases.
        Each phase draws its own salted fault pattern from the spec, and
        nodes crashed during the fractional phase enter the rounding phase
        dead.  Every backend consumes the same materialized schedules, so
        the (possibly degraded) outcome is bitwise identical across them.
        Under faults the usual feasibility ``RuntimeError`` checks are
        suspended -- degradation is the object of study, not a bug.
    repair:
        Whether to run the self-healing patch
        (:func:`~repro.domset.repair.repair_dominating_set`) when the
        faulted rounding output fails to dominate.  Only consulted when
        ``faults`` is given; the outcome lands on ``PipelineResult.repair``
        and ``dominating_set`` is the repaired (always dominating) set.
        With ``repair=False`` the raw degraded set is returned unvalidated.

    Returns
    -------
    PipelineResult

    Raises
    ------
    RuntimeError
        If the fractional phase produced an infeasible LP solution or the
        final set fails validation -- both indicate an implementation bug
        and are checked on every call precisely because the paper's
        correctness argument relies on them.  (Suspended under ``faults``.)
    """
    validate_backend(backend, supported=BACKENDS)
    if backend == SHARDED and collect_trace:
        raise CapabilityError(
            "kuhn-wattenhofer", "collect_trace", SHARDED, (SIMULATED, VECTORIZED)
        )
    if faults is not None and not isinstance(faults, FaultSpec):
        raise TypeError("faults must be a FaultSpec")
    # One check and one CSR build serve both phases, the fault schedules
    # and the self-checks (callers running many pipelines on one graph can
    # pass theirs in).
    bulk = resolve_bulk_input(graph, backend, _bulk, csr=True)
    delta = bulk.max_degree
    k = log_delta_parameter(delta) if k is None else validate_k(k)

    # Each phase draws its own salted fault pattern; nodes crashed during
    # the fractional phase enter the rounding phase already dead.  Both
    # schedules are materialized once up front from the same CSR so every
    # backend (including each shard worker) sees identical masks.
    known_delta = variant is FractionalVariant.KNOWN_DELTA
    frac_schedule = rounding_schedule = None
    if faults is not None:
        exchanges = algorithm2_exchanges(k) if known_delta else algorithm3_exchanges(k)
        frac_schedule = faults.materialize(bulk, rounds=exchanges, salt=0)
        rounding_schedule = faults.materialize(
            bulk,
            rounds=ROUNDING_EXCHANGES,
            salt=1,
            already_dead=frac_schedule.ever_crashed,
        )

    # One shard pool serves both phases: forking, sharing the CSR, and
    # partitioning happen once, then the fractional and rounding supersteps
    # run against the same resident workers.
    with bulk_engine(bulk, backend, shards) as executor:
        fractional_phase = (
            approximate_fractional_mds
            if known_delta
            else approximate_fractional_mds_unknown_delta
        )
        fractional = fractional_phase(
            graph,
            k=k,
            seed=seed,
            collect_trace=collect_trace,
            backend=backend,
            _bulk=bulk,
            _executor=executor,
            _schedule=frac_schedule,
        )

        if faults is None:
            feasible, _ = solution_feasibility(graph, fractional.x, _bulk=bulk)
            if not feasible:
                raise RuntimeError(
                    "fractional phase returned an infeasible LP solution; "
                    "this indicates a bug in the distributed algorithm"
                )

        rounding = round_fractional_solution(
            graph,
            fractional.x,
            seed=seed,
            rule=rounding_rule,
            require_feasible=False,  # checked above (or deliberately skipped)
            backend=backend,
            _bulk=bulk,
            _executor=executor,
            _schedule=rounding_schedule,
        )

    dominating_set = rounding.dominating_set
    repair_report = None
    if faults is None:
        # The bulk backends validate the rounding's membership mask.
        in_set = dominating_set if rounding.in_set is None else rounding.in_set
        if not is_dominating_set(bulk, in_set):
            raise RuntimeError(
                "rounding phase returned a non-dominating set; "
                "this indicates a bug in Algorithm 1's fallback step"
            )
    elif repair:
        repair_report = repair_dominating_set(bulk, dominating_set)
        dominating_set = repair_report.repaired_set

    return PipelineResult(
        dominating_set=dominating_set,
        fractional=fractional,
        rounding=rounding,
        total_rounds=fractional.rounds + rounding.rounds,
        total_messages=fractional.metrics.total_messages
        + rounding.metrics.total_messages,
        max_message_bits=max(
            fractional.metrics.max_message_bits, rounding.metrics.max_message_bits
        ),
        k=k,
        max_degree=delta,
        repair=repair_report,
    )
