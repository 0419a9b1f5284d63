"""Vectorized bulk-synchronous implementations of Algorithms 1-3.

One bulk kernel per algorithm computes the *exact* same per-node values as
the message-passing programs in :mod:`repro.core.fractional`,
:mod:`repro.core.fractional_unknown`, :mod:`repro.core.weighted` and
:mod:`repro.core.rounding`, replacing every per-message Python object with
one whole-graph array operation over a
:class:`~repro.simulator.bulk.BulkGraph`:

* :func:`run_algorithm2_bulk_multi_k` -- Algorithm 2 for a k sweep, with
  an optional per-node cost scale (the weighted variant);
* :func:`run_algorithm3_bulk_multi_k` -- Algorithm 3 for a k sweep;
* :func:`run_rounding_bulk_batched` -- Algorithm 1 for a batch of seeds.

Each also takes an optional fault schedule; a fault-free run is the *null
schedule*, whose masks are all ``None`` (see "Fault schedules" below), so
one loop body serves the fault-free and the faulted executions.  The
kernels only touch the :class:`BulkGraph` operator subset that
:class:`~repro.simulator.sharded.ShardSlab` mirrors, so the sharded
backend runs the same three loop bodies on its slabs.

Numerical equivalence is engineered, not approximate:

* neighbourhood sums accumulate in the simulator's ascending-sender order
  (see :meth:`BulkGraph.neighbor_sum`), so coverage values -- and therefore
  the white/gray colouring decisions they gate -- are bitwise identical;
* every transcendental (the activity thresholds ``γ^(ℓ/(ℓ+1))``, the
  x-boosts ``a^(−m/(m+1))``, the rounding multipliers ``ln(δ⁽²⁾+1)``) is
  evaluated once per *distinct* operand with Python's own float power /
  ``math.log``, exactly as the per-node programs do, and broadcast back;
* the randomized rounding draws node ``i``'s coin as
  ``u(coin_key(seed), i, 0)`` (:mod:`repro.simulator.coins`), keyed on
  the node's position in sorted node order -- the first draw of the
  stream :class:`~repro.simulator.network.Network` hands that node -- so
  the selected dominating set matches the simulated backend flip for
  flip, and a shard slab (which keys on global positions) flips the same
  coins.

Round counts and (modeled) message counts are reported through the same
:class:`~repro.simulator.metrics.ExecutionMetrics` structure the simulator
produces, with an identical per-round layout.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.simulator.bulk import (
    BOOL_PAYLOAD_BITS,
    BulkGraph,
    BulkMetricsBuilder,
    float_payload_bits,
    int_payload_bits,
)
from repro.simulator.coins import coin_key, u
from repro.simulator.columnar import ColumnarTrace
from repro.simulator.metrics import ExecutionMetrics

#: The execution backends exposed by the public entry points.
SIMULATED = "simulated"
VECTORIZED = "vectorized"
SHARDED = "sharded"
BACKENDS = (SIMULATED, VECTORIZED, SHARDED)


class CapabilityError(ValueError):
    """A requested capability is not available on the requested backend.

    This is the one error path shared by every entry point and by the
    :mod:`repro.api` dispatcher: the message always names the algorithm,
    the capability that was asked for, the backend it was asked on, and
    the backends that do support it, so callers never have to guess which
    combination to change.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    handlers (and tests) keep working.
    """

    def __init__(
        self,
        algorithm: str,
        capability: str,
        requested: str | None = None,
        supported: Sequence[str] = (),
    ) -> None:
        self.algorithm = algorithm
        self.capability = capability
        self.requested = requested
        self.supported = tuple(supported)
        if self.supported:
            remedy = "backend(s) supporting it: " + ", ".join(
                repr(name) for name in self.supported
            )
        else:
            remedy = "no backend supports it"
        where = f" on backend {requested!r}" if requested is not None else ""
        super().__init__(
            f"algorithm {algorithm!r} does not support {capability}{where}; "
            f"{remedy}"
        )

    def __reduce__(self):
        # Rebuild from the original arguments so the error survives
        # pickling -- process-pool workers (sweeps with jobs > 1) must be
        # able to ship it back instead of dying with BrokenProcessPool.
        return (
            type(self),
            (self.algorithm, self.capability, self.requested, self.supported),
        )


def validate_backend(
    backend: str, supported: Sequence[str] = (SIMULATED, VECTORIZED)
) -> str:
    """Check a ``backend=`` argument and return it normalised.

    ``supported`` lists the backends this entry point implements; it
    defaults to the simulated/vectorized pair so only the entry points
    that grew a sharded execution path opt into ``"sharded"`` (passing
    ``supported=BACKENDS``) -- everything else rejects it up front instead
    of silently falling through to a per-node path.
    """
    if backend in supported:
        return backend
    if backend in BACKENDS:
        raise ValueError(
            f"backend {backend!r} is not supported by this entry point; "
            f"expected one of {', '.join(supported)}"
        )
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {', '.join(supported)}"
    )


def validate_k(k) -> int:
    """Check a locality parameter and return it as a plain ``int``.

    Accepts Python and numpy integers; rejects ``bool`` (``k=True`` is not
    a locality) and non-integral values with a ``ValueError`` naming ``k``.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    return int(k)


def resolve_bulk_input(graph, backend: str, bulk: BulkGraph | None = None):
    """Support :class:`BulkGraph` instances passed as the ``graph`` argument.

    The CSR-native generators produce :class:`BulkGraph` objects directly;
    the public entry points accept them wherever ``backend="vectorized"``
    (or its multiprocess sibling ``"sharded"``) is in effect -- there is no
    per-node program to run them through, so the simulated backend rejects
    them.  Returns the :class:`BulkGraph` to use for bulk execution -- the
    input itself when it already is one, otherwise the caller-provided
    prebuilt ``bulk`` (which may be ``None``, meaning "build from the
    networkx graph on demand").
    """
    if isinstance(graph, BulkGraph):
        if backend not in (VECTORIZED, SHARDED):
            raise ValueError(
                "BulkGraph inputs require backend='vectorized' or 'sharded'; "
                "the simulated backend needs a networkx graph to build "
                "per-node programs"
            )
        return graph
    return bulk


def _per_distinct(
    values: np.ndarray, func: Callable[[int | float], float]
) -> np.ndarray:
    """``func`` evaluated once per distinct value of ``values``, scattered.

    Non-negative integral values no larger than the array is long index a
    ``bincount`` table directly (no sort); other values go through
    ``np.unique``.  ``func`` receives a Python ``int`` or ``float`` equal to
    the operand either way, so the result does not depend on the path.
    """
    values = np.asarray(values)
    if values.size and 0 <= values.min() and values.max() <= values.size:
        operands = values.astype(np.int64)
        if np.array_equal(operands, values):
            table = np.zeros(int(operands.max()) + 1, dtype=np.float64)
            for operand in np.flatnonzero(np.bincount(operands)).tolist():
                table[operand] = func(operand)
            return table[operands]
    unique, inverse = np.unique(values, return_inverse=True)
    table = np.array([func(operand) for operand in unique.tolist()], dtype=np.float64)
    return table[inverse]


def _unique_powers_cached(
    values: np.ndarray,
    exponent: float,
    cache: dict[tuple[float, float], float],
) -> np.ndarray:
    """``values ** exponent`` evaluated with Python float semantics.

    Computes the power once per distinct operand using ``float.__pow__`` --
    the operation the per-node programs perform -- and scatters the
    results, so the vectorized backend cannot drift from the simulator by
    even one ULP on platforms where numpy's pow differs from libm's.  The
    caller-owned ``(operand, exponent)`` memo lets the multi-k snapshot
    engine reuse one cache across its whole k sweep; entries are exact
    ``float.__pow__`` results, so sharing cannot change a single bit.
    """

    def power(operand: int | float) -> float:
        key = (float(operand), exponent)
        result = cache.get(key)
        if result is None:
            result = cache[key] = float(operand) ** exponent
        return result

    return _per_distinct(values, power)


def _unique_map(values: np.ndarray, func: Callable[[int], float]) -> np.ndarray:
    """Apply an int -> float function once per distinct value and scatter."""
    return _per_distinct(values, lambda operand: func(int(operand)))


class _TraceRecorder:
    """Columnar trace writer for the bulk fractional engines.

    Appends the same events the per-node programs emit -- identical kinds,
    payload keys, values and round indices -- but one
    :meth:`~repro.simulator.columnar.ColumnarTrace.record_group` call per
    event kind per (outer, inner) iteration instead of one Python object
    per node, i.e. O(rounds · n) array cost.  The round index recorded for
    each event equals ``BulkMetricsBuilder.exchange_count`` at the
    recording site, which is exactly the node programs' ``round_counter``
    at the corresponding ``trace_event`` call.  Only the within-round
    event order differs from the simulator (whole kinds at a time instead
    of node-major interleaving); every per-node value is bitwise equal.
    """

    def __init__(self, trace: ColumnarTrace, bulk: BulkGraph) -> None:
        self._trace = trace
        self._nodes = np.asarray(bulk.nodes, dtype=np.int64)

    @staticmethod
    def _colors(white: np.ndarray) -> np.ndarray:
        # The literals match fractional.WHITE / fractional.GRAY (importing
        # them here would be circular: fractional imports this module).
        return np.where(white, "white", "gray")

    def outer_start(
        self,
        rc: int,
        ell: int,
        dynamic_degree: np.ndarray,
        x: np.ndarray,
        white: np.ndarray,
        gamma_two: np.ndarray | None = None,
    ) -> None:
        data: dict = {"ell": ell, "dynamic_degree": dynamic_degree}
        if gamma_two is not None:
            data["gamma_two"] = gamma_two
        data["x"] = x
        data["color"] = self._colors(white)
        self._trace.record_group("outer-loop-start", rc, self._nodes, **data)

    def inner(
        self,
        rc: int,
        ell: int,
        m: int,
        active: np.ndarray,
        x: np.ndarray,
        white: np.ndarray,
        dynamic_degree: np.ndarray,
        a_value: np.ndarray | None = None,
        a_one: np.ndarray | None = None,
    ) -> None:
        data: dict = {"ell": ell, "m": m, "active": active}
        if a_value is not None:
            data["a_value"] = a_value
            data["a_one"] = a_one
        data["x"] = x
        data["color"] = self._colors(white)
        data["dynamic_degree"] = dynamic_degree
        self._trace.record_group("inner-loop", rc, self._nodes, **data)

    def colored_gray(self, rc: int, ell: int, m: int, newly_gray: np.ndarray) -> None:
        self._trace.record_group(
            "colored-gray", rc, self._nodes[newly_gray], ell=ell, m=m
        )


# ---------------------------------------------------------------------- #
# Fault schedules and the null schedule                                   #
# ---------------------------------------------------------------------- #
#
# Every kernel replays its algorithm's exact exchange sequence against a
# schedule: each neighbourhood reduction is restricted to the schedule's
# delivered edges, each exchange's metrics to its senders, and each state
# update is gated by the alive mask of the round that performs it.  Under a
# :class:`~repro.simulator.fault_schedule.FaultSchedule` the arrays evolve
# exactly as the per-node programs' state does under the
# :class:`~repro.simulator.fault_schedule.ScheduledFaults` adapter -- the
# same x-vectors, the same colours, bit for bit.  A per-shard
# :class:`~repro.simulator.fault_schedule.SlabScheduleView` exposes the
# same mask interface, so the identical loop body serves the vectorized and
# sharded backends.
#
# A fault-free run is the *null schedule*: every mask is ``None``, which the
# reductions (``edge_mask=None``), the metrics (``senders=None``) and
# :func:`_gated` all treat as "everything", so the same loop body reproduces
# the fault-free execution bit for bit.
#
# Under faults the modeled metrics exclude crashed senders exchange by
# exchange but keep the fault-free round structure (a run whose every node
# dies early still reports the full exchange count); only the x-vectors,
# dominating sets and drop counts are exact replicas of the simulated
# execution.


class _NullSchedule:
    """The fault-free schedule: no node crashes, no message is lost."""

    def alive(self, round_index: int) -> None:
        return None

    def senders(self, round_index: int) -> None:
        return None

    def delivered_edges(self, round_index: int) -> None:
        return None


_NO_FAULTS = _NullSchedule()


def _gated(alive: np.ndarray | None, updated, current) -> np.ndarray:
    """``updated`` where the node is alive, ``current`` elsewhere.

    ``alive=None`` (the null schedule) means every node is alive.
    """
    return updated if alive is None else np.where(alive, updated, current)


def _degree_maxima(bulk: BulkGraph, schedule) -> tuple[np.ndarray, np.ndarray]:
    """δ⁽¹⁾ and δ⁽²⁾ over exchanges 0 and 1 of ``schedule``.

    With both exchanges fault-free they are the graph's cached
    :meth:`~repro.simulator.bulk.BulkGraph.degree_maxima`.
    """
    first, second = schedule.delivered_edges(0), schedule.delivered_edges(1)
    if first is None and second is None:
        return bulk.degree_maxima()
    delta_one = bulk.closed_max(bulk.degrees, edge_mask=first)
    return delta_one, bulk.closed_max(delta_one, edge_mask=second)


def _newly_covered(
    bulk: BulkGraph, x: np.ndarray, white: np.ndarray, edge_mask: np.ndarray | None
) -> np.ndarray:
    """The white nodes whose coverage ``x_i + Σ_{j ∈ N(i)} x_j`` reaches 1.

    Only white nodes read their coverage after an x-exchange, so only the
    white rows are summed; each sum is bitwise the full pass's.
    """
    white_rows = np.flatnonzero(white)
    covered = np.zeros(bulk.n, dtype=bool)
    coverage = x[white_rows] + bulk.neighbor_sum(x, edge_mask=edge_mask, rows=white_rows)
    covered[white_rows] = coverage >= 1.0
    return covered


def algorithm2_exchanges(k: int) -> int:
    """Delivery rounds of Algorithm 2 with locality ``k`` (2k²)."""
    return 2 * k * k


def algorithm3_exchanges(k: int) -> int:
    """Delivery rounds of Algorithm 3 with locality ``k`` (4k² + 2k + 2)."""
    return 4 * k * k + 2 * k + 2


#: Delivery rounds of Algorithm 1 (degree, δ⁽¹⁾, membership).
ROUNDING_EXCHANGES = 3


# ---------------------------------------------------------------------- #
# Algorithm 2 (Δ known; optionally weighted)                              #
# ---------------------------------------------------------------------- #


def run_algorithm2_bulk_multi_k(
    bulk: BulkGraph,
    k_values: Sequence[int],
    delta: int,
    costs: np.ndarray | None = None,
    c_max: float = 1.0,
    schedule=None,
    traces: Mapping[int, ColumnarTrace] | None = None,
) -> dict[int, tuple[np.ndarray, ExecutionMetrics]]:
    """Algorithm 2 for every k of a sweep: the same 2k² exchanges per k.

    The CSR state arrays are allocated once per k and the transcendental
    tables (the thresholds ``(Δ+1)^{ℓ/k}`` and boosts ``(Δ+1)^{−m/k}``)
    are memoised per distinct exponent quotient across the whole sweep --
    for k ∈ {1..6} more than half the quotients recur.  Every shared value
    is produced by the exact expression the per-node program evaluates, so
    each k's x-vector and modeled metrics are bitwise those of an
    independent run of :class:`~repro.core.fractional.Algorithm2Program`.

    Parameters
    ----------
    bulk:
        The communication graph (a :class:`BulkGraph` or a shard slab).
    k_values:
        Locality parameters of the sweep.
    delta:
        Maximum degree Δ known to all nodes.
    costs:
        Optional per-node costs c_i ∈ [1, c_max], indexed like
        ``bulk.nodes``: the weighted variant (remark after Theorem 4),
        whose node ``i`` is active when
        ``(c_max / c_i) · δ̃_i ≥ [c_max (Δ+1)]^{ℓ/k}`` -- bitwise the
        :class:`~repro.core.weighted.WeightedAlgorithm2Program`.  ``None``
        runs the unweighted rule.
    c_max:
        The global maximum cost (only read when ``costs`` is given).
    schedule:
        Optional fault schedule (whole-graph or slab view); ``None`` is
        the null schedule.  Iteration ``(ℓ, m)``'s activity check runs in
        the round that received the previous colour exchange, so it is
        gated by that round's alive mask (the very first check runs in
        ``on_start`` and is ungated).
    traces:
        Optionally maps a k to a
        :class:`~repro.simulator.columnar.ColumnarTrace` that receives that
        k's per-iteration snapshots (the per-node programs' trace events,
        in columnar form).

    Returns ``{k: (x, metrics)}`` for every requested k.
    """
    k_values = [validate_k(k) for k in k_values]
    if delta < 0:
        raise ValueError("delta must be non-negative")
    schedule = _NO_FAULTS if schedule is None else schedule
    base = delta + 1.0
    # The weighted rule scales δ̃ by (c_max / c_i) -- one elementwise
    # divide reproduces the per-node program's floats -- and raises the
    # threshold base to c_max (Δ+1).
    cost_scale = None
    threshold_base = base
    if costs is not None:
        cost_scale = float(c_max) / np.asarray(costs, dtype=np.float64)
        threshold_base = float(c_max) * base
    powers: dict[tuple[float, float], float] = {}

    def power(operand: float, quotient: float) -> float:
        value = powers.get((operand, quotient))
        if value is None:
            value = powers[(operand, quotient)] = operand**quotient
        return value

    results: dict[int, tuple[np.ndarray, ExecutionMetrics]] = {}
    for k in k_values:
        x = np.zeros(bulk.n, dtype=np.float64)
        white = np.ones(bulk.n, dtype=bool)
        dynamic_degree = bulk.degrees + 1
        metrics = BulkMetricsBuilder(bulk.degrees)
        recorder = None
        if traces is not None and k in traces:
            recorder = _TraceRecorder(traces[k], bulk)
        exchange = 0
        gate = None  # alive mask of the round running the activity check
        for ell in range(k - 1, -1, -1):
            threshold = power(threshold_base, ell / k)
            if recorder is not None:
                recorder.outer_start(
                    metrics.exchange_count, ell, dynamic_degree, x, white
                )
            for m in range(k - 1, -1, -1):
                # Lines 6-8: active nodes raise their x-value.
                scaled = (
                    dynamic_degree if cost_scale is None else cost_scale * dynamic_degree
                )
                active = _gated(gate, scaled >= threshold, False)
                boost = 1.0 / power(base, m / k)
                x = np.where(active, np.maximum(x, boost), x)
                if recorder is not None:
                    recorder.inner(
                        metrics.exchange_count, ell, m, active, x, white, dynamic_degree
                    )

                # Exchange x-values; colour gray once covered (lines 11-12).
                metrics.record_exchange(
                    float_payload_bits(x), senders=schedule.senders(exchange)
                )
                covered = _newly_covered(
                    bulk, x, white, schedule.delivered_edges(exchange)
                )
                if recorder is not None:
                    recorder.colored_gray(metrics.exchange_count, ell, m, covered)
                white = _gated(schedule.alive(exchange), white & ~covered, white)
                exchange += 1

                # Exchange colours; recompute the dynamic degree (lines 9-10).
                metrics.record_exchange(
                    BOOL_PAYLOAD_BITS, senders=schedule.senders(exchange)
                )
                gate = schedule.alive(exchange)
                white_neighbors = bulk.neighbor_count(
                    white, edge_mask=schedule.delivered_edges(exchange)
                )
                dynamic_degree = _gated(gate, white_neighbors + white, dynamic_degree)
                exchange += 1
        results[k] = (x, metrics.build(bulk.nodes))
    return results


# ---------------------------------------------------------------------- #
# Algorithm 3 (Δ unknown)                                                 #
# ---------------------------------------------------------------------- #


def run_algorithm3_bulk_multi_k(
    bulk: BulkGraph,
    k_values: Sequence[int],
    schedule=None,
    traces: Mapping[int, ColumnarTrace] | None = None,
) -> dict[int, tuple[np.ndarray, ExecutionMetrics]]:
    """Algorithm 3 for every k of a sweep: the same 4k² + 2k + 2 exchanges.

    Same statement-to-round mapping as
    :class:`~repro.core.fractional_unknown.Algorithm3Program`: the δ⁽²⁾
    prefix occupies exchanges 0-1, each inner iteration its four exchanges
    (activity flag, a-value, x-value, colour) and each outer iteration its
    two refresh exchanges.  Two pieces are k-independent and computed once
    for the whole sweep: the δ⁽²⁾ prefix (replayed into every k's metrics
    in program order) and the transcendental tables ``γ^{ℓ/(ℓ+1)}`` /
    ``a^{−m/(m+1)}``, whose (operand, exponent) pairs recur heavily across
    k.  Every per-k snapshot is bitwise an independent run of the program.

    ``schedule`` and ``traces`` are as for
    :func:`run_algorithm2_bulk_multi_k`; under a schedule every update is
    gated by the alive mask of the round that performs it and, like the
    hardened program, a node whose delivered a⁽¹⁾ stayed at 0 (every
    witness message lost) skips the x-raise instead of evaluating
    ``0^(−m/(m+1))``.

    Returns ``{k: (x, metrics)}`` for every requested k.
    """
    k_values = [validate_k(k) for k in k_values]
    schedule = _NO_FAULTS if schedule is None else schedule
    power_cache: dict[tuple[float, float], float] = {}
    # Line 2: the δ⁽²⁾ prefix (exchanges 0 and 1).
    degree_bits = int_payload_bits(bulk.degrees)
    delta_one, delta_two = _degree_maxima(bulk, schedule)
    delta_one_bits = int_payload_bits(delta_one)
    initial_gamma_two = (delta_two + 1).astype(np.float64)

    results: dict[int, tuple[np.ndarray, ExecutionMetrics]] = {}
    for k in k_values:
        x = np.zeros(bulk.n, dtype=np.float64)
        white = np.ones(bulk.n, dtype=bool)
        metrics = BulkMetricsBuilder(bulk.degrees)
        metrics.record_exchange(degree_bits, senders=schedule.senders(0))
        metrics.record_exchange(delta_one_bits, senders=schedule.senders(1))
        gamma_two = initial_gamma_two
        dynamic_degree = bulk.degrees + 1
        recorder = None
        if traces is not None and k in traces:
            recorder = _TraceRecorder(traces[k], bulk)
        exchange = 2

        for ell in range(k - 1, -1, -1):
            if recorder is not None:
                recorder.outer_start(
                    metrics.exchange_count, ell, dynamic_degree, x, white,
                    gamma_two=gamma_two,
                )
            # Lines 7-9: the activity threshold γ⁽²⁾^(ℓ/(ℓ+1)) is fixed for
            # the whole inner loop.
            threshold = _unique_powers_cached(gamma_two, ell / (ell + 1), power_cache)
            for m in range(k - 1, -1, -1):
                # One exchange of activity flags.  A dead node's stale flag
                # is never observed: the delivered mask already excludes it
                # as a sender, and its own downstream uses are gated.
                active = dynamic_degree >= threshold
                metrics.record_exchange(
                    BOOL_PAYLOAD_BITS, senders=schedule.senders(exchange)
                )

                # Lines 10-11: a(v) = active nodes in N(v); 0 for gray nodes.
                active_neighbors = bulk.neighbor_count(
                    active, edge_mask=schedule.delivered_edges(exchange)
                )
                a_value = np.where(white, active_neighbors + active, 0).astype(
                    np.int64
                )
                exchange += 1

                # Lines 12-13: exchange a-values, closed-neighbourhood max.
                metrics.record_exchange(
                    int_payload_bits(a_value), senders=schedule.senders(exchange)
                )
                a_one = bulk.closed_max(
                    a_value, edge_mask=schedule.delivered_edges(exchange)
                )

                # Lines 15-17: active nodes raise x to a⁽¹⁾^(−m/(m+1)).
                # Fault-free, a⁽¹⁾ ≥ 1 whenever a node is active.
                raising = _gated(schedule.alive(exchange), active & (a_one >= 1), False)
                if raising.any():
                    boost = _unique_powers_cached(
                        a_one[raising].astype(np.float64), -m / (m + 1), power_cache
                    )
                    x[raising] = np.maximum(x[raising], boost)
                if recorder is not None:
                    recorder.inner(
                        metrics.exchange_count, ell, m, active, x, white,
                        dynamic_degree, a_value=a_value, a_one=a_one,
                    )
                exchange += 1

                # Line 18: exchange x-values; line 19: colour once covered.
                metrics.record_exchange(
                    float_payload_bits(x), senders=schedule.senders(exchange)
                )
                covered = _newly_covered(
                    bulk, x, white, schedule.delivered_edges(exchange)
                )
                if recorder is not None:
                    recorder.colored_gray(metrics.exchange_count, ell, m, covered)
                white = _gated(schedule.alive(exchange), white & ~covered, white)
                exchange += 1

                # Lines 20-21: exchange colours, recompute dynamic degree.
                metrics.record_exchange(
                    BOOL_PAYLOAD_BITS, senders=schedule.senders(exchange)
                )
                white_neighbors = bulk.neighbor_count(
                    white, edge_mask=schedule.delivered_edges(exchange)
                )
                dynamic_degree = _gated(
                    schedule.alive(exchange), white_neighbors + white, dynamic_degree
                )
                exchange += 1

            # Lines 24-27: two exchanges refreshing γ⁽²⁾, floored at 1.  The
            # last outer iteration still sends γ⁽¹⁾, but nothing reads the
            # γ⁽²⁾ it would produce.
            metrics.record_exchange(
                int_payload_bits(dynamic_degree), senders=schedule.senders(exchange)
            )
            gamma_one = bulk.closed_max(
                dynamic_degree, edge_mask=schedule.delivered_edges(exchange)
            )
            exchange += 1
            metrics.record_exchange(
                int_payload_bits(gamma_one), senders=schedule.senders(exchange)
            )
            if ell > 0:
                gamma_two = np.maximum(
                    bulk.closed_max(
                        gamma_one, edge_mask=schedule.delivered_edges(exchange)
                    ).astype(np.float64),
                    1.0,
                )
            exchange += 1
        results[k] = (x, metrics.build(bulk.nodes))
    return results


# ---------------------------------------------------------------------- #
# Algorithm 1 (randomized rounding)                                       #
# ---------------------------------------------------------------------- #


def run_rounding_bulk_batched(
    bulk: BulkGraph,
    x: np.ndarray,
    seeds: Sequence[int | None],
    multiplier_for: Callable[[int], float],
    schedule=None,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, ExecutionMetrics]]:
    """Algorithm 1 for a batch of rounding seeds over one x-vector.

    The seed-independent work -- the two δ⁽²⁾ exchanges, the join
    probabilities, the per-exchange payload bits -- is computed once; each
    trial then only redraws its coin column.  The node at position ``i``
    draws ``u(coin_key(seed), i, 0)``, the first draw of the stream the
    simulated network hands it, so every trial selects the set the
    message-passing :class:`~repro.core.rounding.Algorithm1Program`
    selects, flip for flip.

    Parameters
    ----------
    bulk:
        The communication graph (a :class:`BulkGraph` or a shard slab).
    x:
        Per-node fractional values, indexed like ``bulk.nodes``.
    seeds:
        One experiment seed per trial (``None`` draws a fresh run key).
    multiplier_for:
        ``δ⁽²⁾ -> multiplier`` for the join probability (the rounding-rule
        specific ``ln(δ⁽²⁾+1)`` term).
    schedule:
        Optional fault schedule; ``None`` is the null schedule.  The coin
        is flipped in the round that received δ⁽¹⁾ (so only nodes alive at
        round 1 can join randomly), and the final membership -- like the
        program's ``result()`` -- is only produced by nodes alive at round
        2: a node that joined randomly but crashed before announcing is
        reported in ``joined_randomly`` yet not in the dominating set,
        exactly as the simulated execution reports it.

    Returns one ``(in_set, joined_randomly, joined_as_fallback, metrics)``
    tuple per seed, in seed order: three boolean arrays indexed like
    ``bulk.nodes`` plus the modeled metrics.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        # Same rejection Algorithm1Program performs per node.
        raise ValueError("fractional values must be non-negative")
    schedule = _NO_FAULTS if schedule is None else schedule

    # Line 1: δ⁽²⁾ via two exchanges of degree maxima; lines 2-3: the join
    # probability min(1, x · multiplier(δ⁽²⁾)).
    degree_bits = int_payload_bits(bulk.degrees)
    delta_one, delta_two = _degree_maxima(bulk, schedule)
    delta_one_bits = int_payload_bits(delta_one)
    probability = np.minimum(1.0, x * _unique_map(delta_two, multiplier_for))
    flipping, surviving = schedule.alive(1), schedule.alive(2)
    announced = schedule.delivered_edges(2)

    results = []
    for seed in seeds:
        coins = u(coin_key(seed), bulk.node_index, 0)
        joined_randomly = _gated(flipping, coins < probability, False)
        # Line 4 announces the decision; lines 5-7: nodes with no
        # dominator in their closed neighbourhood join.
        uncovered = ~joined_randomly & ~bulk.neighbor_any(
            joined_randomly, edge_mask=announced
        )
        joined_as_fallback = _gated(surviving, uncovered, False)
        in_set = _gated(surviving, joined_randomly | joined_as_fallback, False)
        metrics = BulkMetricsBuilder(bulk.degrees)
        metrics.record_exchange(degree_bits, senders=schedule.senders(0))
        metrics.record_exchange(delta_one_bits, senders=schedule.senders(1))
        metrics.record_exchange(BOOL_PAYLOAD_BITS, senders=schedule.senders(2))
        results.append(
            (in_set, joined_randomly, joined_as_fallback, metrics.build(bulk.nodes))
        )
    return results


# ---------------------------------------------------------------------- #
# Engines                                                                 #
# ---------------------------------------------------------------------- #


class BulkKernels:
    """The three kernels bound to one in-process graph.

    The single-process twin of
    :class:`~repro.simulator.sharded.ShardedDriver`: the same three
    methods, each taking its kernel's arguments minus the graph, so an
    entry point picks its engine once (:func:`bulk_engine`) and calls it.
    """

    def __init__(self, bulk: BulkGraph) -> None:
        self.bulk = bulk

    def run_algorithm2_multi_k(self, *args, **kwargs):
        return run_algorithm2_bulk_multi_k(self.bulk, *args, **kwargs)

    def run_algorithm3_multi_k(self, *args, **kwargs):
        return run_algorithm3_bulk_multi_k(self.bulk, *args, **kwargs)

    def run_rounding_batched(self, *args, **kwargs):
        return run_rounding_bulk_batched(self.bulk, *args, **kwargs)


@contextmanager
def bulk_engine(
    bulk: BulkGraph | None,
    backend: str,
    shards: int | None = None,
    executor=None,
) -> Iterator:
    """The engine one bulk call (or one multi-phase pipeline) runs on.

    Yields ``executor`` unchanged when the caller already holds one (a
    pipeline's resident shard pool); otherwise a fresh
    :class:`~repro.simulator.sharded.ShardedDriver` over ``bulk`` for the
    sharded backend -- closed when the block exits -- or the in-process
    :class:`BulkKernels`.  The simulated backend never calls the engine.
    """
    if executor is not None:
        yield executor
    elif backend == SHARDED:
        from repro.simulator.sharded import ShardedDriver

        with ShardedDriver(bulk, shards) as driver:
            yield driver
    else:
        yield BulkKernels(bulk)


class NodeValues(Mapping):
    """Read-only ``node -> value`` view of an array in ``nodes`` order.

    The bulk fractional results hand their x-vector over as this view:
    rounding and validation read the array itself
    (:func:`x_array_from_mapping`), and the dict is only built, once, when
    a caller reads the mapping.  The array is frozen read-only.
    """

    def __init__(self, nodes: Sequence[Hashable], values: np.ndarray) -> None:
        values.flags.writeable = False
        self.nodes = nodes
        self.array = values
        self._dict: dict[Hashable, float] | None = None

    def _mapping(self) -> dict[Hashable, float]:
        if self._dict is None:
            # tolist() yields Python floats, bit-identical to float() casts.
            self._dict = dict(zip(self.nodes, self.array.tolist()))
        return self._dict

    def __getitem__(self, node: Hashable) -> float:
        return self._mapping()[node]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.nodes)

    def items(self):
        return self._mapping().items()

    def values(self):
        return self._mapping().values()

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"NodeValues({self._mapping()!r})"


def x_array_from_mapping(bulk: BulkGraph, x: Mapping[Hashable, float]) -> np.ndarray:
    """Convert a node -> value mapping into a ``bulk.nodes``-indexed array.

    A :class:`NodeValues` view over ``bulk``'s nodes returns its (read-only)
    array without a copy.
    """
    if isinstance(x, NodeValues) and (x.nodes is bulk.nodes or x.nodes == bulk.nodes):
        return x.array
    if len(x) == bulk.n:
        # Fast path for complete mappings (the common pipeline case at
        # n >= 10⁶): fromiter over __getitem__ skips a per-node float()
        # call and the intermediate list.  Values are identical -- the
        # float64 cast is the same conversion float() performs.
        try:
            return np.fromiter(
                map(x.__getitem__, bulk.nodes), dtype=np.float64, count=bulk.n
            )
        except KeyError:
            pass
    return np.array(
        [float(x.get(node, 0.0)) for node in bulk.nodes], dtype=np.float64
    )
