"""Algorithm 1 of the paper: distributed randomized rounding.

Given any feasible solution ``x^(α)`` of LP_MDS (an α-approximation of the
fractional optimum), Algorithm 1 converts it into an integral dominating set
in a *constant* number of rounds:

1. each node computes δ⁽²⁾ (two rounds of degree exchange),
2. it joins the dominating set with probability
   ``p_i = min(1, x_i · ln(δ⁽²⁾_i + 1))``,
3. it announces its decision to its neighbours (one round), and
4. any node that sees no dominator in its closed neighbourhood joins itself.

Theorem 3: the expected size of the resulting dominating set is at most
``(1 + α·ln(Δ+1)) · |DS_OPT|``.

The remark after Theorem 3 proposes the alternative multiplier
``ln(δ⁽²⁾+1) − ln ln(δ⁽²⁾+1)``, which trades a slightly larger constant for
a smaller leading term; both variants are implemented and selectable through
:class:`RoundingRule`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.core.fractional import _phase_faults
from repro.core.vectorized import (
    BACKENDS,
    ROUNDING_EXCHANGES,
    SIMULATED,
    VECTORIZED,
    bulk_engine,
    resolve_bulk_input,
    validate_backend,
    x_array_from_mapping,
)
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSchedule, FaultSpec, FaultSummary
from repro.simulator.metrics import ExecutionMetrics
from repro.simulator.network import Network
from repro.simulator.node import NodeContext
from repro.simulator.runtime import SynchronousRunner
from repro.simulator.script import GeneratorNodeProgram


class RoundingRule(str, enum.Enum):
    """Selects the probability multiplier used in line 2 of Algorithm 1."""

    #: The paper's main rule: p_i = min(1, x_i · ln(δ⁽²⁾_i + 1)).
    LOG = "log"
    #: The remark's rule: p_i = min(1, x_i · (ln(δ⁽²⁾+1) − ln ln(δ⁽²⁾+1))).
    LOG_MINUS_LOGLOG = "log_minus_loglog"


def rounding_multiplier(delta_two: int, rule: RoundingRule) -> float:
    """The multiplier applied to x_i when computing the join probability.

    For the ``LOG_MINUS_LOGLOG`` rule the correction term ``ln ln(δ⁽²⁾+1)``
    is only subtracted when it is positive (i.e. δ⁽²⁾ + 1 > e); otherwise the
    rule degenerates gracefully to the plain logarithm.
    """
    log_term = math.log(delta_two + 1.0) if delta_two + 1.0 > 1.0 else 0.0
    if rule is RoundingRule.LOG:
        return log_term
    correction = math.log(log_term) if log_term > 1.0 else 0.0
    return max(log_term - correction, 0.0)


class _MemberSet:
    """A frozenset field that may be given as ``(nodes, mask)``.

    The labels where the mask is set are built on first read; the lazy
    state holds the label tuple and the mask, never the graph.
    """

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, result, owner=None) -> frozenset:
        if result is None:
            raise AttributeError(self._slot[1:])  # a field with no default
        value = result.__dict__[self._slot]
        if not isinstance(value, frozenset):
            nodes, mask = value
            value = frozenset(compress(nodes, mask.tolist()))
            result.__dict__[self._slot] = value
        return value

    def __set__(self, result, value) -> None:
        result.__dict__[self._slot] = value


@dataclass(frozen=True)
class RoundingResult:
    """Output of a distributed rounding execution.

    Attributes
    ----------
    dominating_set:
        The selected dominating set.
    joined_randomly:
        Nodes selected in the randomized step (line 3).
    joined_as_fallback:
        Nodes that joined because their closed neighbourhood contained no
        dominator after the random step (line 6).  The bulk backends keep
        both joined sets as bool masks and build each on first read;
        equality, ``repr`` and pickling see the frozensets.
    rounds:
        Number of synchronous rounds used.
    metrics:
        Message/round metrics of the execution.
    """

    dominating_set: frozenset
    joined_randomly: frozenset = _MemberSet()
    joined_as_fallback: frozenset = _MemberSet()
    rounds: int
    metrics: ExecutionMetrics
    #: What the fault schedule did to this run (``None`` for fault-free runs).
    faults: FaultSummary | None = None
    #: ``dominating_set`` as a read-only bool mask in ``bulk.nodes`` order
    #: (bulk backends only; ``None`` on the simulated backend).
    in_set: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        """|DS| of the selected set."""
        return len(self.dominating_set)


class Algorithm1Program(GeneratorNodeProgram):
    """Per-node program implementing Algorithm 1 (randomized rounding).

    Parameters
    ----------
    x_value:
        The node's component of the fractional solution being rounded.
    rule:
        Probability multiplier rule (see :class:`RoundingRule`).
    """

    def __init__(self, x_value: float, rule: RoundingRule = RoundingRule.LOG) -> None:
        super().__init__()
        if x_value < 0:
            raise ValueError("fractional values must be non-negative")
        self.x_value = float(x_value)
        self.rule = rule
        self.joined_randomly = False
        self.joined_as_fallback = False

    def run(self, ctx: NodeContext):
        # Line 1 (and the remark below Algorithm 1): compute δ⁽²⁾ with two
        # rounds of degree propagation.
        inbox = yield ctx.send_all(ctx.degree, tag="degree")
        neighbor_degrees = self.inbox_by_sender(inbox)
        delta_one = max([ctx.degree, *neighbor_degrees.values()])

        inbox = yield ctx.send_all(delta_one, tag="delta-one")
        neighbor_delta_one = self.inbox_by_sender(inbox)
        delta_two = max([delta_one, *neighbor_delta_one.values()])

        # Lines 2-3: join with probability p_i = min(1, x_i · multiplier).
        probability = min(1.0, self.x_value * rounding_multiplier(delta_two, self.rule))
        in_set = ctx.rng.random() < probability
        self.joined_randomly = in_set

        # Line 4: announce the decision.
        inbox = yield ctx.send_all(in_set, tag="ds-membership")
        neighbor_membership = self.inbox_by_sender(inbox)

        # Lines 5-7: if nobody in the closed neighbourhood joined, join now.
        if not in_set and not any(neighbor_membership.values()):
            in_set = True
            self.joined_as_fallback = True

        self._result = in_set
        return in_set


def solution_feasibility(
    graph,
    x: Mapping[Hashable, float],
    tolerance: float = 1e-7,
    _bulk: BulkGraph | None = None,
) -> tuple[bool, float]:
    """``(feasible, max_violation)`` of ``x`` for LP_MDS (``N·x ≥ 1, x ≥ 0``).

    The constraint is checked on a CSR view in O(n + m): a BulkGraph
    input, the prebuilt ``_bulk`` of a vectorized run, or else one that
    :func:`~repro.core.vectorized.resolve_bulk_input` checks and builds.  Shared by the rounding precondition and the
    pipeline's post-fractional self-check.
    """
    bulk = resolve_bulk_input(graph, VECTORIZED, _bulk)
    return bulk.check_lp_feasible(x_array_from_mapping(bulk, x), tolerance=tolerance)


def _check_rounding_input_feasible(
    bulk: BulkGraph, x: Mapping[Hashable, float]
) -> None:
    """Verify the Theorem-3 precondition ``N·x ≥ 1`` on the CSR ``bulk``."""
    feasible, violation = solution_feasibility(bulk, x)
    if not feasible:
        raise ValueError(
            "input is not a feasible LP_MDS solution "
            f"(max constraint violation {violation:.3e}); "
            "pass require_feasible=False to round it anyway"
        )


def _bulk_rounding_result(
    bulk, in_set, randomly, fallback, metrics, faults=None
) -> RoundingResult:
    """Package the vectorized runner's arrays as a :class:`RoundingResult`.

    ``itertools.compress`` over the bool columns builds the dominating set;
    the two joined sets stay ``(bulk.nodes, mask)`` until first read (this
    is serial time both the vectorized and sharded backends pay per trial).
    """
    for mask in (in_set, randomly, fallback):
        mask.flags.writeable = False
    return RoundingResult(
        dominating_set=frozenset(compress(bulk.nodes, in_set.tolist())),
        joined_randomly=(bulk.nodes, randomly),
        joined_as_fallback=(bulk.nodes, fallback),
        rounds=metrics.round_count,
        metrics=metrics,
        faults=faults,
        in_set=in_set,
    )


def _bulk_rounding(
    bulk: BulkGraph,
    x: Mapping[Hashable, float],
    seeds: Sequence[int | None],
    rule: RoundingRule,
    backend: str,
    shards: int | None,
    executor,
    schedule: FaultSchedule | None = None,
    summary: FaultSummary | None = None,
) -> list[RoundingResult]:
    """Run Algorithm 1 trials on a bulk backend (vectorized or sharded)."""
    values = x_array_from_mapping(bulk, x)
    if np.any(values < 0):
        # The same rejection the kernels perform, raised parent-side so the
        # error type matches the other backends.
        raise ValueError("fractional values must be non-negative")
    # A partial of a module-level function pickles, so the sharded
    # workers receive the same multiplier the in-process kernel calls.
    multiplier_for = partial(rounding_multiplier, rule=rule)
    with bulk_engine(bulk, backend, shards, executor) as engine:
        batch = engine.run_rounding_batched(
            values, seeds, multiplier_for, schedule=schedule
        )
    return [_bulk_rounding_result(bulk, *entry, faults=summary) for entry in batch]


def _program_factory(
    x: Mapping[Hashable, float], rule: RoundingRule
):
    """Per-node factory handing each node its own fractional value."""

    def factory(node_id: int, network: Network) -> Algorithm1Program:
        return Algorithm1Program(x_value=float(x.get(node_id, 0.0)), rule=rule)

    return factory


def round_fractional_solution(
    graph: nx.Graph,
    x: Mapping[Hashable, float],
    seed: int | None = None,
    rule: RoundingRule = RoundingRule.LOG,
    require_feasible: bool = True,
    backend: str = SIMULATED,
    shards: int | None = None,
    faults: FaultSpec | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
    _schedule: FaultSchedule | None = None,
) -> RoundingResult:
    """Round a fractional dominating set solution into an integral one.

    Parameters
    ----------
    graph:
        The network graph.
    x:
        A feasible solution of LP_MDS (per-node fractional values).  The
        feasibility precondition of Theorem 3 is checked unless
        ``require_feasible`` is disabled (useful for fault-injection
        experiments that deliberately feed infeasible inputs).
    seed:
        Seed controlling the per-node coin flips.
    rule:
        Probability multiplier rule.
    require_feasible:
        Whether to verify ``N·x ≥ 1`` before rounding.
    backend:
        ``"simulated"`` for per-node message passing, ``"vectorized"`` for
        the bulk-synchronous array engine, ``"sharded"`` for the multi-
        process superstep engine.  All draw each node's coin from the same
        seeded stream, so for a given ``seed`` they select the same
        dominating set.
    shards:
        Worker count for the sharded backend (``None`` = one per CPU).
    faults:
        Optional :class:`~repro.simulator.fault_schedule.FaultSpec`
        injecting message loss and crash-stop failures.  Every backend
        consumes the same materialized schedule and selects the same
        nodes.  **Under faults the result may fail to dominate the
        graph**: a crashed node cannot run the fallback step -- use
        :func:`repro.domset.repair.repair_dominating_set` to patch the
        outcome.  Reported on ``RoundingResult.faults``.

    ``graph`` may also be a CSR :class:`~repro.simulator.bulk.BulkGraph`
    (vectorized backend only).  The feasibility precondition is checked on
    a CSR view in O(n + m) for either input kind.

    Returns
    -------
    RoundingResult
        The dominating set and execution statistics.  The result is always a
        valid dominating set (line 6 of the algorithm guarantees it even for
        infeasible inputs, as long as every node runs the fallback step).
    """
    validate_backend(backend, supported=BACKENDS)
    faulted = faults is not None or _schedule is not None
    bulk = resolve_bulk_input(
        graph, backend, _bulk, csr=faulted or require_feasible
    )
    schedule, summary = _phase_faults(bulk, faults, _schedule, ROUNDING_EXCHANGES)
    if require_feasible:
        _check_rounding_input_feasible(bulk, x)

    if backend != SIMULATED:
        return _bulk_rounding(
            bulk, x, [seed], rule, backend, shards, _executor, schedule, summary
        )[0]

    network = Network(graph, _program_factory(x, rule), seed=seed)
    runner = SynchronousRunner(
        network,
        fault_model=None if schedule is None else schedule.fault_model(bulk.nodes),
        max_rounds=16,
    )
    execution = runner.run()
    if not execution.terminated:
        raise RuntimeError("Algorithm 1 did not terminate within its round budget")

    # Crashed programs never produce a result; only survivors' final
    # memberships count, but the joined_randomly flag of a node that died
    # after its coin flip is still reported.
    dominating_set = frozenset(
        node for node, joined in execution.results.items() if joined
    )
    joined_randomly = frozenset(
        node
        for node in network.node_ids
        if getattr(network.program(node), "joined_randomly", False)
    )
    joined_as_fallback = frozenset(
        node
        for node in network.node_ids
        if getattr(network.program(node), "joined_as_fallback", False)
    )
    return RoundingResult(
        dominating_set=dominating_set,
        joined_randomly=joined_randomly,
        joined_as_fallback=joined_as_fallback,
        rounds=execution.rounds,
        metrics=execution.metrics,
        faults=summary,
    )


def round_fractional_solution_batched(
    graph: nx.Graph,
    x: Mapping[Hashable, float],
    seeds: Sequence[int | None],
    rule: RoundingRule = RoundingRule.LOG,
    require_feasible: bool = True,
    backend: str = SIMULATED,
    shards: int | None = None,
    _bulk: BulkGraph | None = None,
    _executor=None,
) -> list[RoundingResult]:
    """Round one fractional solution under many independent rounding seeds.

    Trial ``t`` reproduces ``round_fractional_solution(graph, x, seeds[t],
    ...)`` exactly -- the per-node coins come from the same per-seed
    streams -- but the seed-independent work (input feasibility, the CSR
    build, the δ⁽²⁾ exchanges, the join probabilities) is paid once instead
    of once per trial.  This is what lets ``sweep_pipeline`` stop re-running
    the deterministic fractional phase and its feasibility check for every
    rounding trial.

    On the simulated backend the batch simply loops the one-seed entry
    point (per-message fidelity has nothing seed-independent to share
    beyond the feasibility check).

    Returns
    -------
    list[RoundingResult]
        One result per seed, in seed order.
    """
    validate_backend(backend, supported=BACKENDS)
    bulk = resolve_bulk_input(graph, backend, _bulk, csr=require_feasible)
    if require_feasible:
        _check_rounding_input_feasible(bulk, x)

    if backend != SIMULATED:
        return _bulk_rounding(bulk, x, seeds, rule, backend, shards, _executor)

    return [
        round_fractional_solution(
            graph, x, seed, rule, require_feasible=False, backend=backend, _bulk=bulk
        )
        for seed in seeds
    ]


def expected_join_probabilities(
    graph: nx.Graph,
    x: Mapping[Hashable, float],
    rule: RoundingRule = RoundingRule.LOG,
) -> dict[Hashable, float]:
    """The per-node probabilities p_i used in line 2 of Algorithm 1.

    Computed centrally (no simulation); used by tests to compare the
    empirical join frequency against the analytical probability, and by the
    Theorem-3 benchmark to report the analytic expectation
    E[X] = Σ p_i alongside the measured |DS|.
    """
    from repro.graphs.utils import delta_two as delta_two_map

    two_hop = delta_two_map(graph)
    return {
        node: min(1.0, float(x.get(node, 0.0)) * rounding_multiplier(two_hop[node], rule))
        for node in graph.nodes()
    }
