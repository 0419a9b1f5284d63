"""Weighted variant of Algorithm 2 (remark after Theorem 4).

The paper sketches how Algorithm 2 generalises to the *weighted* fractional
dominating set problem, where node v_i carries a cost c_i ∈ [1, c_max] and
the objective is Σ c_i x_i:

* define the cost-scaled dynamic degree ``γ̃(v_i) := (c_max / c_i) · δ̃(v_i)``,
* call a node *active* when ``γ̃(v_i) ≥ [c_max (Δ+1)]^{ℓ/k}`` instead of
  ``δ̃(v_i) ≥ (Δ+1)^{ℓ/k}``.

With those changes the approximation ratio becomes
``k (Δ+1)^{1/k} [c_max (Δ+1)]^{1/k}``.  The message pattern (and hence the
2k² round count) is identical to the unweighted Algorithm 2.

The weighted rounding step reuses Algorithm 1 unchanged -- randomized
rounding is oblivious to the objective weights; only the analysis changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro.core.fractional import Algorithm2Program, _traces_for
from repro.core.rounding import RoundingResult, RoundingRule, round_fractional_solution
from repro.core.vectorized import (
    BACKENDS,
    SHARDED,
    SIMULATED,
    VECTORIZED,
    CapabilityError,
    bulk_engine,
    resolve_bulk_input,
    validate_backend,
    validate_k,
)
from repro.domset.validation import is_dominating_set
from repro.domset.weighted import validate_weights, weighted_cost
from repro.graphs.utils import max_degree
from repro.simulator.bulk import BulkGraph
from repro.simulator.metrics import ExecutionMetrics
from repro.simulator.network import Network
from repro.simulator.runtime import SynchronousRunner
from repro.simulator.columnar import ColumnarTrace
from repro.simulator.trace import ExecutionTrace


@dataclass(frozen=True)
class WeightedFractionalResult:
    """Output of the weighted fractional dominating set algorithm.

    Attributes
    ----------
    x:
        Per-node fractional values.
    objective:
        The weighted objective Σ c_i x_i.
    unweighted_objective:
        Σ x_i (useful for comparisons with the unweighted run).
    rounds:
        Rounds used by the execution.
    metrics:
        Message/round metrics.
    k, max_degree, c_max:
        Parameters the theoretical bound is stated in.
    """

    x: dict[Hashable, float]
    objective: float
    unweighted_objective: float
    rounds: int
    metrics: ExecutionMetrics
    k: int
    max_degree: int
    c_max: float
    #: Execution trace of the fractional phase (empty unless the run
    #: collected one; event-based on the simulated backend, columnar on
    #: the vectorized backend).
    trace: ExecutionTrace | ColumnarTrace = field(default_factory=ExecutionTrace)


class WeightedAlgorithm2Program(Algorithm2Program):
    """Per-node program for the weighted variant of Algorithm 2.

    Algorithm 2 with the remark's activity rule; the message pattern is
    unchanged.

    Parameters
    ----------
    k:
        Locality parameter.
    delta:
        Global maximum degree Δ (known to all nodes, as in Algorithm 2).
    cost:
        This node's cost c_i ∈ [1, c_max].
    c_max:
        The global maximum cost (known to all nodes; the weighted remark
        treats it as a global constant analogous to Δ).
    """

    def __init__(self, k: int, delta: int, cost: float, c_max: float) -> None:
        super().__init__(k, delta)
        if cost < 1.0 or cost > c_max:
            raise ValueError("cost must lie in [1, c_max]")
        self.cost = float(cost)
        self.c_max = float(c_max)

    def _active(self, ell: int, base: float) -> bool:
        # Weighted activity rule from the remark: a node is active when its
        # cost-scaled dynamic degree is large.
        scaled_degree = (self.c_max / self.cost) * self.dynamic_degree
        return scaled_degree >= (self.c_max * base) ** (ell / self.k)


def approximate_weighted_fractional_mds(
    graph: nx.Graph,
    weights: Mapping[Hashable, float],
    k: int,
    seed: int | None = None,
    collect_trace: bool = False,
    backend: str = SIMULATED,
    shards: int | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
) -> WeightedFractionalResult:
    """Run the weighted variant of Algorithm 2.

    Parameters
    ----------
    graph:
        The network graph.  May also be a CSR
        :class:`~repro.simulator.bulk.BulkGraph` (vectorized backend only).
    weights:
        Node costs c_i with 1 ≤ c_i ≤ c_max.
    k:
        Locality parameter; the remark's bound is
        k(Δ+1)^{1/k}[c_max(Δ+1)]^{1/k}.
    seed:
        Seed for reproducibility bookkeeping (the algorithm is deterministic).
    collect_trace:
        Record a full execution trace (invariant monitors).  The simulated
        backend records an event-based
        :class:`~repro.simulator.trace.ExecutionTrace`; the vectorized
        backend records the same information as a columnar
        :class:`~repro.simulator.columnar.ColumnarTrace`.
    backend:
        ``"simulated"`` drives per-node message passing; ``"vectorized"``
        computes the identical x-vector (bitwise, like the unweighted
        ports) with whole-graph array operations; ``"sharded"`` runs the
        vectorized kernel as multiprocess supersteps, again bitwise equal.
    shards:
        Worker count for the sharded backend (``None`` = one per CPU).

    Returns
    -------
    WeightedFractionalResult
    """
    validate_backend(backend, supported=BACKENDS)
    bulk = resolve_bulk_input(graph, backend, _bulk)
    k = validate_k(k)
    node_ids = bulk.nodes if bulk is graph else tuple(graph.nodes())
    c_max = float(max(weights[node] for node in node_ids))
    validate_weights(graph, weights, c_max=c_max)
    delta = max_degree(bulk or graph)

    if backend != SIMULATED:
        if collect_trace and backend == SHARDED:
            raise CapabilityError(
                "weighted-kuhn-wattenhofer",
                "collect_trace",
                SHARDED,
                (SIMULATED, VECTORIZED),
            )
        costs = np.array(
            [float(weights[node]) for node in bulk.nodes], dtype=np.float64
        )
        trace = ColumnarTrace() if collect_trace else None
        with bulk_engine(bulk, backend, shards, _executor) as engine:
            values, metrics = engine.run_algorithm2_multi_k(
                (k,), delta, costs=costs, c_max=c_max, traces=_traces_for(k, trace)
            )[k]
        x = dict(zip(bulk.nodes, values.tolist()))
        return WeightedFractionalResult(
            x=x,
            # The same sorted-order Python float sums the simulated path
            # performs, so both objectives are bitwise identical.
            objective=float(sum(weights[node] * x[node] for node in x)),
            unweighted_objective=float(sum(x.values())),
            rounds=metrics.round_count,
            metrics=metrics,
            k=k,
            max_degree=delta,
            c_max=c_max,
            trace=trace if trace is not None else ExecutionTrace(),
        )

    def factory(node_id: int, network: Network) -> WeightedAlgorithm2Program:
        return WeightedAlgorithm2Program(
            k=k, delta=delta, cost=float(weights[node_id]), c_max=c_max
        )

    network = Network(graph, factory, seed=seed)
    runner = SynchronousRunner(
        network, max_rounds=2 * k * k + 10, collect_trace=collect_trace
    )
    execution = runner.run()
    if not execution.terminated:
        raise RuntimeError(
            "weighted Algorithm 2 did not terminate within its round budget"
        )

    x = {node: float(value) for node, value in execution.results.items()}
    weighted_objective = float(sum(weights[node] * x[node] for node in x))
    return WeightedFractionalResult(
        x=x,
        objective=weighted_objective,
        unweighted_objective=float(sum(x.values())),
        rounds=execution.rounds,
        metrics=execution.metrics,
        k=k,
        max_degree=delta,
        c_max=c_max,
        trace=execution.trace,
    )


@dataclass(frozen=True)
class WeightedPipelineResult:
    """Output of the weighted end-to-end pipeline.

    Attributes
    ----------
    dominating_set:
        The final (validated) dominating set.
    cost:
        Its total weighted cost Σ_{v ∈ DS} c_v.
    fractional:
        The weighted fractional phase result.
    rounding:
        The randomized rounding phase result.
    total_rounds:
        Rounds used by both phases combined.
    """

    dominating_set: frozenset
    cost: float
    fractional: WeightedFractionalResult
    rounding: RoundingResult
    total_rounds: int

    @property
    def size(self) -> int:
        """|DS| of the final dominating set."""
        return len(self.dominating_set)


def weighted_kuhn_wattenhofer_dominating_set(
    graph: nx.Graph,
    weights: Mapping[Hashable, float],
    k: int,
    seed: int | None = None,
    rounding_rule: RoundingRule = RoundingRule.LOG,
    collect_trace: bool = False,
    backend: str = SIMULATED,
    shards: int | None = None,
    _bulk: BulkGraph | None = None,
) -> WeightedPipelineResult:
    """End-to-end weighted pipeline: weighted Algorithm 2 + Algorithm 1.

    The rounding step is identical to the unweighted case (the randomized
    rounding analysis of Theorem 3 is oblivious to the objective weights);
    only the fractional phase uses the cost-scaled activity rule from the
    remark after Theorem 4.

    Parameters
    ----------
    graph:
        The network graph (networkx, or a CSR
        :class:`~repro.simulator.bulk.BulkGraph` with the vectorized
        backend).
    weights:
        Node costs c_i with 1 ≤ c_i ≤ c_max.
    k:
        Locality parameter.
    seed:
        Seed for the rounding coin flips.
    rounding_rule:
        Probability multiplier for Algorithm 1.
    collect_trace:
        Record an execution trace of the fractional phase (event-based on
        the simulated backend, columnar on the vectorized backend).
    backend:
        Execution engine for both phases; for a given seed all backends
        select the same dominating set.
    shards:
        Worker count for the sharded backend (``None`` = one per CPU).

    Returns
    -------
    WeightedPipelineResult
    """
    validate_backend(backend, supported=BACKENDS)
    # One check and one CSR build serve both phases and the feasibility
    # check; as in the unweighted pipeline, one shard pool does too.
    bulk = resolve_bulk_input(graph, backend, _bulk, csr=True)
    with bulk_engine(bulk, backend, shards) as executor:
        fractional = approximate_weighted_fractional_mds(
            graph,
            weights,
            k=k,
            seed=seed,
            collect_trace=collect_trace,
            backend=backend,
            _bulk=bulk,
            _executor=executor,
        )
        rounding = round_fractional_solution(
            graph,
            fractional.x,
            seed=seed,
            rule=rounding_rule,
            require_feasible=True,
            backend=backend,
            _bulk=bulk,
            _executor=executor,
        )
    if not is_dominating_set(graph, rounding.dominating_set):
        raise RuntimeError(
            "weighted pipeline produced a non-dominating set; "
            "this indicates a bug in Algorithm 1's fallback step"
        )
    return WeightedPipelineResult(
        dominating_set=rounding.dominating_set,
        cost=weighted_cost(weights, rounding.dominating_set),
        fractional=fractional,
        rounding=rounding,
        total_rounds=fractional.rounds + rounding.rounds,
    )
