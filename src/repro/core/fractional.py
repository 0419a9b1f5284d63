"""Algorithm 2 of the paper: distributed LP_MDS approximation with Δ known.

Every node knows the maximum degree Δ of the graph.  The algorithm runs two
nested loops of k iterations each; in every inner-loop iteration each node
performs two message exchanges (colours, then x-values), for a total of
``2k²`` synchronous rounds.  Theorem 4 guarantees that the produced x-vector
is a feasible solution of LP_MDS whose objective is at most
``k·(Δ+1)^{2/k}`` times the fractional optimum.

The implementation follows the pseudocode line by line; the per-line
correspondence is annotated in :meth:`Algorithm2Program.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.core.vectorized import (
    BACKENDS,
    SHARDED,
    SIMULATED,
    VECTORIZED,
    CapabilityError,
    NodeValues,
    algorithm2_exchanges,
    bulk_engine,
    resolve_bulk_input,
    validate_backend,
    validate_k,
)
from repro.simulator.columnar import ColumnarTrace
from repro.graphs.utils import max_degree
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSchedule, FaultSpec, FaultSummary
from repro.simulator.metrics import ExecutionMetrics
from repro.simulator.network import Network
from repro.simulator.node import NodeContext
from repro.simulator.runtime import SynchronousRunner
from repro.simulator.script import GeneratorNodeProgram
from repro.simulator.trace import ExecutionTrace

WHITE = "white"
GRAY = "gray"


@dataclass(frozen=True)
class FractionalResult:
    """Output of a distributed fractional dominating set execution.

    Attributes
    ----------
    x:
        Per-node fractional values (the LP_MDS solution).  The bulk
        backends return a read-only
        :class:`~repro.core.vectorized.NodeValues` view over the x-vector
        array, whose dict is built on first access.
    objective:
        Σ_i x_i, the fractional objective.
    rounds:
        Number of synchronous rounds executed.
    metrics:
        Full message/round metrics of the execution.
    trace:
        Execution trace (only populated when tracing was requested).
    k:
        The locality parameter the algorithm was run with.
    max_degree:
        The maximum degree Δ of the input graph.
    """

    x: Mapping[Hashable, float]
    objective: float
    rounds: int
    metrics: ExecutionMetrics
    trace: ExecutionTrace | ColumnarTrace
    k: int
    max_degree: int
    #: What the fault schedule did to this run (``None`` for fault-free runs).
    faults: FaultSummary | None = None


class Algorithm2Program(GeneratorNodeProgram):
    """Per-node program implementing Algorithm 2 (Δ known).

    Parameters
    ----------
    k:
        The locality parameter; the algorithm uses 2k² rounds.
    delta:
        The global maximum degree Δ, assumed known by every node (this is
        exactly the extra knowledge Algorithm 2 requires compared to
        Algorithm 3).
    """

    def __init__(self, k: int, delta: int) -> None:
        super().__init__()
        k = validate_k(k)
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.k = k
        self.delta = delta
        # Local algorithm state, exposed for tests and invariant monitors.
        self.x = 0.0
        self.color = WHITE
        self.dynamic_degree = 0

    def _active(self, ell: int, base: float) -> bool:
        """Line 6's activity test ``δ̃(v_i) ≥ (Δ+1)^{ℓ/k}``."""
        return self.dynamic_degree >= base ** (ell / self.k)

    # ------------------------------------------------------------------ #

    def run(self, ctx: NodeContext):
        k = self.k
        base = self.delta + 1.0

        # Line 1: x_i := 0; δ̃(v_i) := δ_i + 1.
        self.x = 0.0
        self.dynamic_degree = ctx.degree + 1
        self.color = WHITE
        coverage = 0.0  # running value of Σ_{j ∈ N_i} x_j
        round_counter = 0

        # Line 2: outer loop over ℓ = k-1 .. 0.
        for ell in range(k - 1, -1, -1):
            self.trace_event(
                round_counter,
                ctx.node_id,
                "outer-loop-start",
                ell=ell,
                dynamic_degree=self.dynamic_degree,
                x=self.x,
                color=self.color,
            )
            # Line 4: inner loop over m = k-1 .. 0.
            for m in range(k - 1, -1, -1):
                # Lines 6-8: active nodes raise their x-value.
                active = self._active(ell, base)
                if active:
                    self.x = max(self.x, 1.0 / base ** (m / k))
                self.trace_event(
                    round_counter,
                    ctx.node_id,
                    "inner-loop",
                    ell=ell,
                    m=m,
                    active=active,
                    x=self.x,
                    color=self.color,
                    dynamic_degree=self.dynamic_degree,
                )

                # Lines 9-12 of the printed pseudocode exchange colours
                # before x-values.  That ordering leaves δ̃ one iteration
                # stale relative to the colours, which contradicts the
                # proofs of Lemmas 2 and 4 (and the journal version's own
                # Algorithm 3, which refreshes δ̃ *after* the colour
                # update).  We therefore execute the two exchanges in the
                # proof-consistent order -- x-values first, colours second
                # -- keeping the round count at exactly two per iteration.

                # Exchange x-values; colour gray once the closed
                # neighbourhood is covered (paper lines 11-12).
                inbox = yield ctx.send_all(self.x, tag="x-value")
                round_counter += 1
                neighbor_x = self.inbox_by_sender(inbox)
                coverage = self.x + sum(neighbor_x.values())
                if coverage >= 1.0:
                    if self.color == WHITE:
                        self.trace_event(
                            round_counter, ctx.node_id, "colored-gray", ell=ell, m=m
                        )
                    self.color = GRAY

                # Exchange colours; recompute the dynamic degree δ̃
                # (paper lines 9-10).
                inbox = yield ctx.send_all(self.color == WHITE, tag="color")
                round_counter += 1
                colors = self.inbox_by_sender(inbox)
                white_neighbors = sum(1 for is_white in colors.values() if is_white)
                self.dynamic_degree = white_neighbors + (1 if self.color == WHITE else 0)

        self._result = self.x
        return self.x


def _package_fractional(bulk, values, metrics, k, true_delta, trace=None, faults=None):
    """Build a :class:`FractionalResult` from bulk-engine output arrays.

    ``x`` is a :class:`~repro.core.vectorized.NodeValues` view over
    ``values``.  The objective is ``np.add.accumulate``'s last entry: a
    strictly left-to-right sum in ``bulk.nodes`` order, bitwise the
    simulated path's ``sum(x.values())`` (``np.sum`` is pairwise and is
    not).
    """
    return FractionalResult(
        x=NodeValues(bulk.nodes, values),
        objective=float(np.add.accumulate(values)[-1]),
        rounds=metrics.round_count,
        metrics=metrics,
        trace=trace if trace is not None else ExecutionTrace(),
        k=k,
        max_degree=true_delta,
        faults=faults,
    )


def _traces_for(k: int, trace: ColumnarTrace | None):
    """The kernels' ``traces`` argument for a one-k run (``None``: untraced)."""
    return None if trace is None else {k: trace}


def _phase_faults(
    bulk: BulkGraph | None,
    faults: FaultSpec | None,
    schedule: FaultSchedule | None,
    exchanges: int,
) -> tuple[FaultSchedule | None, FaultSummary | None]:
    """One phase's ``(schedule, summary)`` on its CSR ``bulk``.

    The pipeline materializes its phases' schedules itself (to chain the
    crash state between them) and hands them down as ``schedule``;
    standalone callers pass a :class:`FaultSpec` and get the ``salt=0``
    stream.  Fault-free, both are ``None``.
    """
    if faults is None and schedule is None:
        return None, None
    if schedule is None:
        if not isinstance(faults, FaultSpec):
            raise TypeError("faults must be a FaultSpec")
        schedule = faults.materialize(bulk, rounds=exchanges, salt=0)
    return schedule, schedule.summary(exchanges)


def _program_factory(k: int, delta: int):
    """Build the per-node program factory for Algorithm 2."""

    def factory(node_id: int, network: Network) -> Algorithm2Program:
        return Algorithm2Program(k=k, delta=delta)

    return factory


def approximate_fractional_mds(
    graph: nx.Graph,
    k: int,
    seed: int | None = None,
    collect_trace: bool = False,
    delta: int | None = None,
    backend: str = SIMULATED,
    shards: int | None = None,
    faults: FaultSpec | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
    _schedule: FaultSchedule | None = None,
) -> FractionalResult:
    """Run Algorithm 2 on a graph and return its fractional solution.

    Parameters
    ----------
    graph:
        The network graph (undirected, simple).
    k:
        Locality parameter; the algorithm uses 2k² rounds and guarantees a
        k(Δ+1)^{2/k} approximation of LP_MDS (Theorem 4).
    seed:
        Seed for per-node randomness.  Algorithm 2 is deterministic, so the
        seed only matters for reproducibility bookkeeping.
    collect_trace:
        Record a full execution trace (needed by the invariant monitors and
        the Figure-1 experiment).  The simulated backend records an
        event-based :class:`~repro.simulator.trace.ExecutionTrace`; the
        vectorized backend records the same information as a
        :class:`~repro.simulator.columnar.ColumnarTrace` (losslessly
        convertible to events) at O(rounds · n) array cost.
    delta:
        Override for the Δ value distributed to the nodes.  Defaults to the
        true maximum degree of ``graph``; passing a larger value emulates
        nodes knowing only an upper bound on Δ.
    backend:
        ``"simulated"`` executes per-node message-passing programs
        (message-level fidelity, traces, fault models); ``"vectorized"``
        computes the identical x-vector with whole-graph array operations
        (orders of magnitude faster on large graphs); ``"sharded"`` runs
        the same vectorized kernel as multiprocess bulk-synchronous
        supersteps over hash-partitioned CSR slabs -- bitwise identical
        again, and the only backend that scales to n ≥ 10⁶.
    shards:
        Worker-process count for the sharded backend (``None`` lets the
        engine pick one per usable CPU).  Ignored by the other backends.
    faults:
        Optional :class:`~repro.simulator.fault_schedule.FaultSpec`
        injecting message loss and crash-stop failures.  All three
        backends consume the *same* materialized schedule and produce
        bitwise-identical x-vectors; the applied pattern is reported on
        ``FractionalResult.faults``.  Tracing under faults is only
        supported on the simulated backend.

    ``graph`` may also be a CSR :class:`~repro.simulator.bulk.BulkGraph`
    (e.g. from :mod:`repro.graphs.bulk`), in which case a bulk backend
    (vectorized or sharded) is required -- no networkx graph is ever
    materialised.

    Returns
    -------
    FractionalResult
    """
    validate_backend(backend, supported=BACKENDS)
    faulted = faults is not None or _schedule is not None
    bulk = resolve_bulk_input(graph, backend, _bulk, csr=faulted)
    k = validate_k(k)
    true_delta = max_degree(bulk or graph)
    if delta is None:
        delta = true_delta
    elif delta < true_delta:
        raise ValueError(
            f"delta={delta} is smaller than the true maximum degree {true_delta}"
        )

    if faulted:
        if collect_trace and backend != SIMULATED:
            raise CapabilityError(
                "approximate_fractional_mds",
                "collect_trace under fault injection",
                backend,
                (SIMULATED,),
            )
    elif collect_trace and backend == SHARDED:
        raise CapabilityError(
            "approximate_fractional_mds",
            "collect_trace",
            SHARDED,
            (SIMULATED, VECTORIZED),
        )
    schedule, summary = _phase_faults(bulk, faults, _schedule, algorithm2_exchanges(k))

    if backend != SIMULATED:
        trace = ColumnarTrace() if collect_trace else None
        with bulk_engine(bulk, backend, shards, _executor) as engine:
            values, metrics = engine.run_algorithm2_multi_k(
                (k,), delta, schedule=schedule, traces=_traces_for(k, trace)
            )[k]
        return _package_fractional(
            bulk, values, metrics, k, true_delta, trace=trace, faults=summary
        )

    network = Network(graph, _program_factory(k, delta), seed=seed)
    runner = SynchronousRunner(
        network,
        fault_model=None if schedule is None else schedule.fault_model(bulk.nodes),
        max_rounds=2 * k * k + 10,
        collect_trace=collect_trace,
    )
    execution = runner.run()
    if not execution.terminated:
        raise RuntimeError("Algorithm 2 did not terminate within its round budget")

    if schedule is None:
        x = {node: float(value) for node, value in execution.results.items()}
    else:
        # Crashed programs never reach result(); their frozen in-place
        # state carries the x-value they died with.
        x = {node: float(network.program(node).x) for node in bulk.nodes}
    return FractionalResult(
        x=x,
        objective=float(sum(x.values())),
        rounds=execution.rounds,
        metrics=execution.metrics,
        trace=execution.trace,
        k=k,
        max_degree=true_delta,
        faults=summary,
    )


def approximate_fractional_mds_multi_k(
    graph: nx.Graph,
    k_values: "Sequence[int]",
    seed: int | None = None,
    delta: int | None = None,
    backend: str = SIMULATED,
    shards: int | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
) -> dict[int, FractionalResult]:
    """Run Algorithm 2 for a whole k sweep in one call.

    On the bulk backends (vectorized or sharded) one invocation of the
    Algorithm 2 kernel (:func:`repro.core.vectorized.run_algorithm2_bulk_multi_k`)
    produces the per-k x-vectors -- each bitwise identical to an
    independent ``approximate_fractional_mds(graph, k, ...)`` run -- while
    paying validation, the CSR build and the shared transcendental tables
    once for the sweep instead of once per k.  On the simulated backend
    (kept so sweeps have a single code path) the call simply loops the
    per-k entry point.

    Returns ``{k: FractionalResult}`` for every requested k.
    """
    validate_backend(backend, supported=BACKENDS)
    if backend not in (VECTORIZED, SHARDED):
        return {
            k: approximate_fractional_mds(
                graph, k=k, seed=seed, delta=delta, backend=backend
            )
            for k in k_values
        }

    bulk = resolve_bulk_input(graph, backend, _bulk)
    true_delta = bulk.max_degree
    if delta is None:
        delta = true_delta
    elif delta < true_delta:
        raise ValueError(
            f"delta={delta} is smaller than the true maximum degree {true_delta}"
        )
    with bulk_engine(bulk, backend, shards, _executor) as engine:
        snapshots = engine.run_algorithm2_multi_k(tuple(k_values), delta)
    return {
        k: _package_fractional(bulk, values, metrics, k, true_delta)
        for k, (values, metrics) in snapshots.items()
    }
