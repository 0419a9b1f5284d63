"""Precomputed fault masks shared by every backend.

The call-time fault models in :mod:`repro.simulator.faults` draw their
randomness while messages flow, which ties the fault pattern to one
backend's execution order.  A :class:`FaultSchedule` instead materializes
the *entire* fault pattern up front from a seed, aligned to the graph's
CSR layout:

* **edge-drop masks** -- one Bernoulli keep/drop bit per CSR position and
  delivery round.  Position ``p`` of the CSR is the directed message
  ``col[p] -> row[p]``, so the mask for round ``r`` answers "is the
  round-``r`` message across this edge delivered?" for every edge at once.
* **crash-stop masks** -- one crash round per node (or never).  A node
  executes round ``r`` iff ``r < crash_round``, and *nothing it sent is
  delivered in round ``r >= crash_round``* (its final in-flight messages
  die with it) -- the same comparison on both sides, mirroring the
  :class:`~repro.simulator.faults.CrashStopFaults` semantics.

Because every mask is a pure function of ``(seed, salt, round)`` the same
schedule can be consumed three ways with bitwise-identical outcomes:

* the simulated runner, via the :class:`ScheduledFaults` adapter
  (per-message lookups into the masks),
* the vectorized kernels in :mod:`repro.core.vectorized`, via masked
  CSR reductions (the schedule itself is the
  :class:`whole-graph view <FaultSchedule>`),
* the sharded engine, via :class:`SlabScheduleView` (masks sliced to one
  shard's slab positions).

Round/exchange mapping (established by the bulk kernels): exchange ``e``
of a kernel is the set of messages *delivered* in simulator round ``e``.
Exchange 0 is produced in ``on_start``, which every node executes (a node
crashing at round 0 initializes, sends, and dies -- its messages are
dropped by the delivery gate); exchange ``e >= 1`` is produced in
``on_round(e - 1)``, executed only by nodes with ``crash_round > e - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.simulator.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.bulk import BulkGraph

#: Crash round assigned to nodes that never crash.
NEVER = int(2**62)

#: Sub-stream tags so the crash draw and the per-round edge draws are
#: independent streams of the same seed.
_CRASH_STREAM = 0
_EDGE_STREAM = 1


@dataclass(frozen=True)
class FaultSpec:
    """Seeded description of a fault pattern, independent of any graph.

    Parameters
    ----------
    loss_probability:
        Probability that any single message is dropped, independently per
        (round, edge).
    crash_probability:
        Probability that a node crashes at all; crashing nodes pick their
        crash round uniformly from ``[0, horizon]``.
    seed:
        Root seed for both the crash draw and the per-round edge masks.
    horizon:
        Crash-round horizon.  ``None`` (default) uses the consuming
        algorithm's round budget, so "crashes anywhere in the execution".
    """

    loss_probability: float = 0.0
    crash_probability: float = 0.0
    seed: int = 0
    horizon: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if not 0.0 <= self.crash_probability <= 1.0:
            raise ValueError("crash_probability must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.horizon is not None and self.horizon < 0:
            raise ValueError("horizon must be non-negative")

    @property
    def is_faulty(self) -> bool:
        """Whether this spec can actually drop or crash anything."""
        return self.loss_probability > 0.0 or self.crash_probability > 0.0

    def materialize(
        self,
        bulk: "BulkGraph",
        rounds: int,
        salt: int = 0,
        already_dead: np.ndarray | None = None,
    ) -> "FaultSchedule":
        """Materialize the schedule against one graph's CSR layout.

        ``salt`` separates the streams of distinct phases run under one
        spec (e.g. fractional solve vs. rounding).  ``already_dead`` marks
        nodes crashed in a previous phase; they get ``crash_round = 0``.
        """
        return FaultSchedule(
            spec=self,
            indptr=bulk.indptr,
            col=bulk.col,
            rounds=rounds,
            salt=salt,
            already_dead=already_dead,
        )


@dataclass(frozen=True)
class FaultSummary:
    """What a fault schedule actually did to one execution phase.

    Attributes
    ----------
    spec:
        The spec the schedule was materialized from.
    crashed_nodes:
        Number of nodes that crash at some round of the phase.
    dropped_messages / delivered_messages:
        Totals over every delivery round of the phase.
    drops:
        Per-delivery-round ``(dropped, delivered)`` counts, shaped exactly
        like :attr:`~repro.simulator.runtime.ExecutionResult.drops`.
    """

    spec: FaultSpec
    crashed_nodes: int
    dropped_messages: int
    delivered_messages: int
    drops: dict[int, tuple[int, int]]


class FaultSchedule:
    """Materialized per-round fault masks for one graph (CSR-aligned).

    The schedule doubles as the whole-graph *schedule view* consumed by the
    vectorized kernels; :meth:`slab_view` produces the equivalent
    view for one shard's slab.
    """

    def __init__(
        self,
        spec: FaultSpec,
        indptr: np.ndarray,
        col: np.ndarray,
        rounds: int,
        salt: int = 0,
        already_dead: np.ndarray | None = None,
    ) -> None:
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.spec = spec
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.col = np.asarray(col, dtype=np.int64)
        self.n = int(self.indptr.size) - 1
        self.m = int(self.col.size)
        self.rounds = int(rounds)
        self.salt = int(salt)
        horizon = spec.horizon if spec.horizon is not None else rounds

        rng = np.random.default_rng((spec.seed, self.salt, _CRASH_STREAM))
        crashed = rng.random(self.n) < spec.crash_probability
        drawn = rng.integers(0, max(horizon, 0) + 1, size=self.n)
        self.crash_rounds = np.where(crashed, drawn, NEVER).astype(np.int64)
        if already_dead is not None:
            already_dead = np.asarray(already_dead, dtype=bool)
            if already_dead.shape != (self.n,):
                raise ValueError("already_dead must be a length-n bool array")
            self.crash_rounds = np.where(already_dead, 0, self.crash_rounds)
        # Kept so consumers (the sharded driver) can re-materialize an
        # identical schedule in another process from small pieces.
        self.already_dead = already_dead
        self._keep_cache: dict[int, np.ndarray] = {}
        self._all_nodes = np.ones(self.n, dtype=bool)
        self._all_edges = np.ones(self.m, dtype=bool)

    # ------------------------------------------------------------------ #
    # Node masks                                                          #
    # ------------------------------------------------------------------ #

    @property
    def crashed_count(self) -> int:
        """Number of nodes that crash at some round."""
        return int(np.count_nonzero(self.crash_rounds != NEVER))

    @property
    def ever_crashed(self) -> np.ndarray:
        """Nodes that crash at some round (bool, length n).

        Pass this as ``already_dead`` when materializing the next phase of
        a multi-phase execution: with the default horizon every crashing
        node is dead by the end of the phase.
        """
        return self.crash_rounds != NEVER

    def alive(self, round_index: int) -> np.ndarray:
        """Nodes that execute ``on_round(round_index)`` (bool, length n).

        This is also the delivery gate for messages arriving in
        ``round_index``: a message from ``v`` is delivered in round ``r``
        iff ``alive(r)[v]``.
        """
        return self.crash_rounds > round_index

    def senders(self, round_index: int) -> np.ndarray:
        """Nodes that *produced* exchange ``round_index`` (bool, length n).

        Exchange 0 comes from ``on_start`` (every node); exchange ``e >= 1``
        from ``on_round(e - 1)`` (nodes with ``crash_round > e - 1``).
        """
        if round_index == 0:
            return self._all_nodes
        return self.crash_rounds >= round_index

    # ------------------------------------------------------------------ #
    # Edge masks                                                          #
    # ------------------------------------------------------------------ #

    def edge_keep(self, round_index: int) -> np.ndarray:
        """Loss mask for round ``round_index`` (bool, length m): True = kept."""
        cached = self._keep_cache.get(round_index)
        if cached is not None:
            return cached
        if self.spec.loss_probability == 0.0:
            keep = self._all_edges
        else:
            rng = np.random.default_rng(
                (self.spec.seed, self.salt, _EDGE_STREAM, round_index)
            )
            keep = rng.random(self.m) >= self.spec.loss_probability
        self._keep_cache[round_index] = keep
        return keep

    def delivered_edges(self, round_index: int) -> np.ndarray:
        """Messages actually delivered in ``round_index`` (bool, length m)."""
        return self.edge_keep(round_index) & self.alive(round_index)[self.col]

    def sent_edges(self, round_index: int) -> np.ndarray:
        """Messages sent for delivery in ``round_index`` (bool, length m)."""
        if round_index == 0:
            return self._all_edges
        return self.senders(round_index)[self.col]

    def drop_counts(self, round_index: int) -> tuple[int, int]:
        """``(dropped, delivered)`` message counts for one delivery round."""
        sent = int(np.count_nonzero(self.sent_edges(round_index)))
        delivered = int(np.count_nonzero(self.delivered_edges(round_index)))
        return sent - delivered, delivered

    def drops_dict(self, exchanges: int) -> dict[int, tuple[int, int]]:
        """Per-delivery-round drop counts, shaped like the runner's record.

        Reproduces :attr:`~repro.simulator.runtime.ExecutionResult.drops`
        for an ``exchanges``-exchange execution under this schedule: the
        runner creates round ``r``'s entry when any node executes
        ``on_round(r - 1)`` -- so the record stops once every node is dead
        -- and the final round's empty outboxes leave one trailing
        ``(0, 0)`` entry.
        """
        if exchanges < 1:
            raise ValueError("exchanges must be positive")
        drops = {0: self.drop_counts(0)}
        for delivery_round in range(1, exchanges + 1):
            if not bool(self.alive(delivery_round - 1).any()):
                break
            if delivery_round < exchanges:
                drops[delivery_round] = self.drop_counts(delivery_round)
            else:
                drops[delivery_round] = (0, 0)
        return drops

    def summary(self, exchanges: int) -> FaultSummary:
        """Aggregate this schedule's effect on an ``exchanges``-round phase."""
        drops = self.drops_dict(exchanges)
        return FaultSummary(
            spec=self.spec,
            crashed_nodes=self.crashed_count,
            dropped_messages=sum(dropped for dropped, _ in drops.values()),
            delivered_messages=sum(delivered for _, delivered in drops.values()),
            drops=drops,
        )

    # ------------------------------------------------------------------ #
    # Consumers                                                           #
    # ------------------------------------------------------------------ #

    def fault_model(self, nodes: Sequence[Hashable]) -> "ScheduledFaults":
        """Per-message adapter for the simulated runner."""
        return ScheduledFaults(self, nodes)

    def slab_view(self, owned: np.ndarray, flat: np.ndarray) -> "SlabScheduleView":
        """Schedule view restricted to one shard slab.

        ``owned`` are the shard's global vertex positions and ``flat`` the
        global CSR positions of its slab entries, in slab order.
        """
        return SlabScheduleView(self, owned, flat)


class SlabScheduleView:
    """One shard's slice of a :class:`FaultSchedule`.

    Exposes the same mask interface the bulk kernels consume, with node
    masks over the shard's owned vertices and edge masks over its slab
    positions -- every slab entry keeps its global CSR decision, so
    per-shard reductions stay bitwise equal to the whole-graph ones.
    """

    def __init__(
        self, schedule: FaultSchedule, owned: np.ndarray, flat: np.ndarray
    ) -> None:
        self._schedule = schedule
        self._owned = np.asarray(owned, dtype=np.int64)
        self._flat = np.asarray(flat, dtype=np.int64)

    def alive(self, round_index: int) -> np.ndarray:
        return self._schedule.alive(round_index)[self._owned]

    def senders(self, round_index: int) -> np.ndarray:
        return self._schedule.senders(round_index)[self._owned]

    def delivered_edges(self, round_index: int) -> np.ndarray:
        return self._schedule.delivered_edges(round_index)[self._flat]

    def sent_edges(self, round_index: int) -> np.ndarray:
        return self._schedule.sent_edges(round_index)[self._flat]


class ScheduledFaults:
    """:class:`~repro.simulator.faults.FaultModel` backed by a schedule.

    Gives the per-node simulator exactly the schedule's decisions: node
    liveness from the crash-round array, per-message delivery by looking
    up the message's CSR position in the round's edge mask.  Running the
    simulated backend under this model reproduces the masked vectorized
    kernels bit for bit.
    """

    def __init__(self, schedule: FaultSchedule, nodes: Sequence[Hashable]) -> None:
        self._schedule = schedule
        self._index = {node: position for position, node in enumerate(nodes)}
        if len(self._index) != schedule.n:
            raise ValueError(
                f"node labels do not match the schedule: {len(self._index)} "
                f"labels for {schedule.n} scheduled nodes"
            )

    def node_alive(self, node_id: Hashable, round_index: int) -> bool:
        return bool(round_index < self._schedule.crash_rounds[self._index[node_id]])

    def is_crashed(self, node_id: Hashable, round_index: int) -> bool:
        """Whether ``node_id`` is permanently dead from ``round_index`` on."""
        return bool(round_index >= self._schedule.crash_rounds[self._index[node_id]])

    def deliver(self, message: Message, round_index: int) -> bool:
        schedule = self._schedule
        sender = self._index[message.sender]
        if round_index >= schedule.crash_rounds[sender]:
            return False
        receiver = self._index[message.receiver]
        start = schedule.indptr[receiver]
        end = schedule.indptr[receiver + 1]
        # The LOCAL model guarantees sender is a neighbour of receiver, so
        # the sorted row slice contains it exactly once.
        position = start + np.searchsorted(schedule.col[start:end], sender)
        return bool(self._schedule.edge_keep(round_index)[position])
