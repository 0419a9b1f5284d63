"""Algorithm 3 of the paper: distributed LP_MDS approximation, Δ unknown.

Algorithm 3 removes Algorithm 2's assumption that every node knows the
global maximum degree Δ.  Instead each node works with purely local
quantities:

* ``γ⁽²⁾(v_i)`` -- the maximum dynamic degree within distance 2 of v_i at
  the beginning of the current outer-loop iteration, and
* ``a⁽¹⁾(v_i)`` -- the maximum, over the closed neighbourhood, of the
  number of active nodes ``a(v_j)``.

Each inner-loop iteration needs four message exchanges (active flags, a-
values, x-values, colours) and every outer-loop iteration adds two more
(dynamic degrees, γ⁽¹⁾ values); two initial rounds compute δ⁽²⁾.  Theorem 5
guarantees the produced x-vector is feasible for LP_MDS with objective at
most ``k·((Δ+1)^{1/k} + (Δ+1)^{2/k})`` times the optimum, and the algorithm
terminates after ``4k² + O(k)`` rounds.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.core.fractional import (
    GRAY,
    WHITE,
    FractionalResult,
    _package_fractional,
    _phase_faults,
    _traces_for,
)
from repro.core.vectorized import (
    BACKENDS,
    SHARDED,
    SIMULATED,
    VECTORIZED,
    CapabilityError,
    algorithm3_exchanges,
    bulk_engine,
    resolve_bulk_input,
    validate_backend,
    validate_k,
)
from repro.graphs.utils import max_degree
from repro.simulator.bulk import BulkGraph
from repro.simulator.columnar import ColumnarTrace
from repro.simulator.fault_schedule import FaultSchedule, FaultSpec
from repro.simulator.network import Network
from repro.simulator.node import NodeContext
from repro.simulator.runtime import SynchronousRunner
from repro.simulator.script import GeneratorNodeProgram


class Algorithm3Program(GeneratorNodeProgram):
    """Per-node program implementing Algorithm 3 (Δ not known).

    Parameters
    ----------
    k:
        Locality parameter; the algorithm runs 4k² + O(k) rounds.
    """

    def __init__(self, k: int) -> None:
        super().__init__()
        self.k = validate_k(k)
        # Local state exposed for tests and invariant monitors.
        self.x = 0.0
        self.color = WHITE
        self.dynamic_degree = 0
        self.gamma_two = 0.0

    # ------------------------------------------------------------------ #

    def run(self, ctx: NodeContext):
        k = self.k

        # Line 1: x_i := 0.
        self.x = 0.0
        self.color = WHITE
        round_counter = 0

        # Line 2: calculate δ⁽²⁾_i (two communication rounds).
        inbox = yield ctx.send_all(ctx.degree, tag="degree")
        round_counter += 1
        neighbor_degrees = self.inbox_by_sender(inbox)
        delta_one = max([ctx.degree, *neighbor_degrees.values()])

        inbox = yield ctx.send_all(delta_one, tag="delta-one")
        round_counter += 1
        neighbor_delta_one = self.inbox_by_sender(inbox)
        delta_two = max([delta_one, *neighbor_delta_one.values()])

        # Line 3: γ⁽²⁾(v_i) := δ⁽²⁾_i + 1;  δ̃(v_i) := δ_i + 1.
        self.gamma_two = float(delta_two + 1)
        self.dynamic_degree = ctx.degree + 1

        # Line 4: outer loop over ℓ = k-1 .. 0.
        for ell in range(k - 1, -1, -1):
            self.trace_event(
                round_counter,
                ctx.node_id,
                "outer-loop-start",
                ell=ell,
                dynamic_degree=self.dynamic_degree,
                gamma_two=self.gamma_two,
                x=self.x,
                color=self.color,
            )
            # Line 6: inner loop over m = k-1 .. 0.
            for m in range(k - 1, -1, -1):
                # Lines 7-9: determine activity and announce it (one round).
                threshold = self.gamma_two ** (ell / (ell + 1))
                is_active = self.dynamic_degree >= threshold
                inbox = yield ctx.send_all(is_active, tag="active")
                round_counter += 1
                neighbor_active = self.inbox_by_sender(inbox)

                # Lines 10-11: a(v_i) = number of active nodes in N_i
                # (0 for gray nodes).
                active_count = sum(1 for flag in neighbor_active.values() if flag)
                active_count += 1 if is_active else 0
                if self.color == GRAY:
                    active_count = 0

                # Lines 12-13: exchange a-values, take the neighbourhood max.
                inbox = yield ctx.send_all(active_count, tag="a-value")
                round_counter += 1
                neighbor_a = self.inbox_by_sender(inbox)
                a_one = max([active_count, *neighbor_a.values()])

                # Lines 15-17: active nodes raise their x-value to
                # a⁽¹⁾(v_i)^(−m/(m+1)).
                if is_active and a_one >= 1:
                    # Fault-free, a_one ≥ 1 whenever a node is active: the
                    # node itself has a white node in N_i, and that node
                    # counts v_i.  Under message loss every witness message
                    # may be dropped, leaving a gray active node with
                    # a_one = 0; skip the raise rather than evaluate
                    # 0^(−m/(m+1)).
                    self.x = max(self.x, float(a_one) ** (-m / (m + 1)))

                # Recorded after the x-update (and before the colour update)
                # so that, as for Algorithm 2, the event carries this
                # iteration's x-value together with the start-of-iteration
                # colour -- the alignment the invariant checkers rely on.
                self.trace_event(
                    round_counter,
                    ctx.node_id,
                    "inner-loop",
                    ell=ell,
                    m=m,
                    active=is_active,
                    a_value=active_count,
                    a_one=a_one,
                    x=self.x,
                    color=self.color,
                    dynamic_degree=self.dynamic_degree,
                )

                # Line 18: send the x-value (one round).
                inbox = yield ctx.send_all(self.x, tag="x-value")
                round_counter += 1
                neighbor_x = self.inbox_by_sender(inbox)

                # Line 19: colour gray once the closed neighbourhood is covered.
                coverage = self.x + sum(neighbor_x.values())
                if coverage >= 1.0:
                    if self.color == WHITE:
                        self.trace_event(
                            round_counter, ctx.node_id, "colored-gray", ell=ell, m=m
                        )
                    self.color = GRAY

                # Lines 20-21: exchange colours, recompute the dynamic degree.
                inbox = yield ctx.send_all(self.color == WHITE, tag="color")
                round_counter += 1
                neighbor_colors = self.inbox_by_sender(inbox)
                white_neighbors = sum(1 for flag in neighbor_colors.values() if flag)
                self.dynamic_degree = white_neighbors + (
                    1 if self.color == WHITE else 0
                )

            # Lines 24-27: refresh γ⁽²⁾ for the next outer-loop iteration
            # (two additional rounds per outer iteration).
            inbox = yield ctx.send_all(self.dynamic_degree, tag="dynamic-degree")
            round_counter += 1
            neighbor_dynamic = self.inbox_by_sender(inbox)
            gamma_one = max([self.dynamic_degree, *neighbor_dynamic.values()])

            inbox = yield ctx.send_all(gamma_one, tag="gamma-one")
            round_counter += 1
            neighbor_gamma_one = self.inbox_by_sender(inbox)
            self.gamma_two = float(max([gamma_one, *neighbor_gamma_one.values()]))
            # γ⁽²⁾ is used as a base of the activity threshold; keep it ≥ 1
            # so the exponentiation stays well defined once all nodes are gray.
            self.gamma_two = max(self.gamma_two, 1.0)

        self._result = self.x
        return self.x


def _program_factory(k: int):
    """Build the per-node program factory for Algorithm 3."""

    def factory(node_id: int, network: Network) -> Algorithm3Program:
        return Algorithm3Program(k=k)

    return factory


def approximate_fractional_mds_unknown_delta(
    graph: nx.Graph,
    k: int,
    seed: int | None = None,
    collect_trace: bool = False,
    backend: str = SIMULATED,
    shards: int | None = None,
    faults: FaultSpec | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
    _schedule: FaultSchedule | None = None,
) -> FractionalResult:
    """Run Algorithm 3 on a graph and return its fractional solution.

    Parameters
    ----------
    graph:
        The network graph (undirected, simple).
    k:
        Locality parameter; Theorem 5 guarantees a
        k((Δ+1)^{1/k} + (Δ+1)^{2/k}) approximation in 4k² + O(k) rounds.
    seed:
        Seed for per-node randomness (Algorithm 3 is deterministic; kept for
        interface symmetry with the randomized components).
    collect_trace:
        Record a full execution trace for invariant checking.  Only
        supported by the simulated backend.
    backend:
        ``"simulated"`` for per-node message passing, ``"vectorized"`` for
        the bulk-synchronous array engine (identical x-vectors, far faster
        on large graphs), ``"sharded"`` for the multiprocess superstep
        engine (identical again; scales to n ≥ 10⁶).
    shards:
        Worker-process count for the sharded backend (``None`` picks one
        per usable CPU).  Ignored by the other backends.
    faults:
        Optional :class:`~repro.simulator.fault_schedule.FaultSpec`
        injecting message loss and crash-stop failures; every backend
        consumes the same materialized schedule and produces
        bitwise-identical x-vectors.  Reported on
        ``FractionalResult.faults``.

    ``graph`` may also be a CSR :class:`~repro.simulator.bulk.BulkGraph`,
    in which case a bulk backend (vectorized or sharded) is required.

    Returns
    -------
    FractionalResult
    """
    validate_backend(backend, supported=BACKENDS)
    faulted = faults is not None or _schedule is not None
    bulk = resolve_bulk_input(graph, backend, _bulk, csr=faulted)
    k = validate_k(k)
    true_delta = max_degree(bulk or graph)

    if faulted:
        if collect_trace and backend != SIMULATED:
            raise CapabilityError(
                "approximate_fractional_mds_unknown_delta",
                "collect_trace under fault injection",
                backend,
                (SIMULATED,),
            )
    elif collect_trace and backend == SHARDED:
        raise CapabilityError(
            "approximate_fractional_mds_unknown_delta",
            "collect_trace",
            SHARDED,
            (SIMULATED, VECTORIZED),
        )
    schedule, summary = _phase_faults(bulk, faults, _schedule, algorithm3_exchanges(k))

    if backend != SIMULATED:
        trace = ColumnarTrace() if collect_trace else None
        with bulk_engine(bulk, backend, shards, _executor) as engine:
            values, metrics = engine.run_algorithm3_multi_k(
                (k,), schedule=schedule, traces=_traces_for(k, trace)
            )[k]
        return _package_fractional(
            bulk, values, metrics, k, true_delta, trace=trace, faults=summary
        )

    network = Network(graph, _program_factory(k), seed=seed)
    runner = SynchronousRunner(
        network,
        fault_model=None if schedule is None else schedule.fault_model(bulk.nodes),
        max_rounds=4 * k * k + 6 * k + 12,
        collect_trace=collect_trace,
    )
    execution = runner.run()
    if not execution.terminated:
        raise RuntimeError("Algorithm 3 did not terminate within its round budget")

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


def approximate_fractional_mds_unknown_delta_multi_k(
    graph: nx.Graph,
    k_values: Sequence[int],
    seed: int | None = None,
    backend: str = SIMULATED,
    shards: int | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
) -> dict[int, FractionalResult]:
    """Run Algorithm 3 for a whole k sweep in one call.

    The bulk backends (vectorized or sharded) run the Algorithm 3 kernel
    (:func:`repro.core.vectorized.run_algorithm3_bulk_multi_k`) once, which
    computes the k-independent δ⁽²⁾ prefix once and shares the
    transcendental tables across the sweep while producing per-k results
    bitwise identical to independent
    ``approximate_fractional_mds_unknown_delta`` runs.  The simulated
    backend loops the per-k entry point so sweeps keep one code path.

    Returns ``{k: FractionalResult}`` for every requested k.
    """
    validate_backend(backend, supported=BACKENDS)
    if backend not in (VECTORIZED, SHARDED):
        return {
            k: approximate_fractional_mds_unknown_delta(
                graph, k=k, seed=seed, backend=backend
            )
            for k in k_values
        }

    bulk = resolve_bulk_input(graph, backend, _bulk)
    true_delta = bulk.max_degree
    with bulk_engine(bulk, backend, shards, _executor) as engine:
        snapshots = engine.run_algorithm3_multi_k(tuple(k_values))
    return {
        k: _package_fractional(bulk, values, metrics, k, true_delta)
        for k, (values, metrics) in snapshots.items()
    }
