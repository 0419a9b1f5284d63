"""Sharded MPC-style execution engine: multiprocess bulk-synchronous supersteps.

The vectorized backend (:mod:`repro.core.vectorized`) executes every
"send to all neighbours / receive" step of the paper's algorithms as one
whole-graph array operation.  This module scales that model past a single
process: the :class:`~repro.simulator.bulk.BulkGraph` vertex set is
hash-partitioned into per-shard CSR slabs, one worker process per shard,
and every exchange becomes a bulk-synchronous *superstep*:

1. each shard runs the unmodified vectorized kernel on its local slab,
2. when the kernel asks for a neighbourhood operator, the shard publishes
   its owned values into a shared-memory mailbox and reads back only the
   values of its *ghost* vertices (owned by other shards) -- the frontier
   of its slab, never the whole graph,
3. a barrier ends the superstep before anybody writes the next one.

Equivalence with the single-process vectorized backend is engineered to be
**bitwise**, regardless of shard count:

* The slab keeps every CSR row's original ascending-neighbour order, so
  :meth:`ShardSlab.neighbor_sum` accumulates each row left to right in the
  exact order :meth:`BulkGraph.neighbor_sum` does (``numpy.bincount``
  iterates sequentially) -- floating-point sums cannot drift by one ULP.
* The mailbox carries ``float64`` payloads; every value the kernels
  exchange (x-values, degrees, counts, colour flags) is either a float64
  already or an integer far below 2⁵³, so the round trip is exact.
* Each shard's :class:`~repro.simulator.bulk.BulkMetricsBuilder` accounts
  only its owned nodes; the driver merges the per-shard metrics with exact
  integer sums (messages, bits) and maxima (message size), producing the
  identical :class:`~repro.simulator.metrics.ExecutionMetrics`.

The three kernels in :mod:`repro.core.vectorized` (one per algorithm)
run **unchanged** on each slab: :class:`ShardSlab` exposes the operator
subset they use (``n``, ``nodes``, ``node_index``, ``degrees``,
``neighbor_sum``, ``neighbor_count``, ``closed_max``, ``neighbor_any``,
``degree_maxima``)
with the exchange embedded inside each operator; ``node_index`` holds the
owned nodes' global positions, so the rounding coins key on the same
indices as on the whole graph.  Their control flow is driven only by
global parameters (k, Δ) -- the one data-dependent branch (Algorithm 3's
``raising.any()`` boost) contains no exchange -- so all shards execute the
same superstep sequence in lockstep, including shards that own zero
vertices.  :class:`ShardedDriver` has one method and one worker command
per kernel, with the kernel's signature minus the graph.

**Fault injection** rides the same machinery: a command carries its fault
schedule as small picklable pieces, and each worker re-materializes the
identical :class:`~repro.simulator.fault_schedule.FaultSchedule` from the
spec (the masks are pure functions of the seed) against the shared global
CSR, then slices it to its slab with
:meth:`~repro.simulator.fault_schedule.FaultSchedule.slab_view`.  Every
slab entry keeps its global CSR position's mask decision, so the sharded
result stays bitwise equal to the vectorized and simulated backends.  A
fault-free command carries no schedule and the kernel runs its null
schedule.

**Crash tolerance**: the driver heartbeats its workers while collecting
replies.  A dead worker aborts the superstep barrier (releasing its
peers), is respawned, and the whole command is replayed -- the kernels
are deterministic, so the replay reproduces the exact result the
uninterrupted run would have produced.  When the respawn budget is
exhausted the driver degrades gracefully: it emits a structured
:class:`ShardDegradationWarning` and re-runs the command on the
single-process vectorized backend in the parent.
"""

from __future__ import annotations

import multiprocessing
import resource
import secrets
import traceback
import warnings
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.vectorized import (
    BulkKernels,
    run_algorithm2_bulk_multi_k,
    run_algorithm3_bulk_multi_k,
    run_rounding_bulk_batched,
    validate_k,
)
from repro.simulator.bulk import BulkGraph, available_cpu_count
from repro.simulator.fault_schedule import FaultSchedule
from repro.simulator.metrics import ExecutionMetrics, RoundMetrics

#: Fibonacci multiplicative-hash constants for the vertex -> shard map.
#: Deterministic across processes and Python invocations (unlike ``hash``),
#: and mixes consecutive vertex ids so grid/path locality does not leave
#: whole shards empty.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(33)

#: Auto-selection never picks more workers than this.
DEFAULT_MAX_SHARDS = 8

#: Per-superstep barrier timeout.  Generous -- a single exchange at
#: n = 10⁶ takes milliseconds -- but bounded, so a crashed worker breaks
#: the barrier for everyone instead of hanging CI forever.
_BARRIER_TIMEOUT = 600.0


def resolve_shard_count(shards: int | None) -> int:
    """Validate an explicit shard count or pick a default from the host.

    ``None`` means "let the engine choose": one worker per usable CPU,
    capped at :data:`DEFAULT_MAX_SHARDS` (past ~8 shards the ghost
    boundary grows faster than the per-shard work shrinks on the suite's
    sparse graphs).
    """
    if shards is None:
        return max(1, min(available_cpu_count(), DEFAULT_MAX_SHARDS))
    shards = int(shards)
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return shards


def shard_owner(n: int, shards: int) -> np.ndarray:
    """Deterministic vertex -> owning-shard assignment, as an int64 array."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    mixed = (np.arange(n, dtype=np.uint64) * _HASH_MULTIPLIER) >> _HASH_SHIFT
    return (mixed % np.uint64(shards)).astype(np.int64)


@dataclass
class ShardLayout:
    """One shard's slice of the global CSR: owner/ghost maps + local slab.

    Attributes
    ----------
    shard_id / shards:
        This shard's position in the partition.
    owned:
        Global positions of the vertices this shard owns, ascending.
    ghosts:
        Global positions of non-owned vertices adjacent to an owned one
        (the shard's frontier), ascending.
    indptr / col / row:
        The local CSR slab: one row per owned vertex (contiguous local
        indices ``0..len(owned)-1``), columns in *combined local* space --
        owned vertices keep their local index, ghosts follow at
        ``len(owned) + rank``.  Every row preserves the global CSR's
        within-row order, which is what keeps ``neighbor_sum`` bitwise
        equal to the single-process operator.
    flat:
        Global CSR positions of the slab entries, in slab order.  This is
        the alignment key for fault masks: slicing a length-m edge mask
        with ``flat`` gives each slab entry exactly the keep/drop decision
        its global CSR position drew.
    degrees:
        Owned vertices' global degrees (the slab rows are complete).
    """

    shard_id: int
    shards: int
    owned: np.ndarray
    ghosts: np.ndarray
    indptr: np.ndarray
    col: np.ndarray
    row: np.ndarray
    flat: np.ndarray
    degrees: np.ndarray

    @classmethod
    def build(
        cls, indptr: np.ndarray, col: np.ndarray, shard_id: int, shards: int
    ) -> "ShardLayout":
        """Slice the global CSR into this shard's slab (vectorized gather)."""
        n = int(indptr.size) - 1
        owner = shard_owner(n, shards)
        owned = np.flatnonzero(owner == shard_id)
        counts = (indptr[owned + 1] - indptr[owned]).astype(np.int64)
        local_indptr = np.zeros(owned.size + 1, dtype=np.int64)
        np.cumsum(counts, out=local_indptr[1:])
        total = int(local_indptr[-1])
        if total:
            flat = (
                np.repeat(indptr[owned] - local_indptr[:-1], counts)
                + np.arange(total, dtype=np.int64)
            )
            cols_global = np.asarray(col[flat], dtype=np.int64)
        else:
            flat = np.zeros(0, dtype=np.int64)
            cols_global = np.zeros(0, dtype=np.int64)
        ghosts = np.setdiff1d(cols_global, owned)
        lookup = np.full(n, -1, dtype=np.int64)
        lookup[owned] = np.arange(owned.size, dtype=np.int64)
        lookup[ghosts] = owned.size + np.arange(ghosts.size, dtype=np.int64)
        return cls(
            shard_id=shard_id,
            shards=shards,
            owned=owned,
            ghosts=ghosts,
            indptr=local_indptr,
            col=lookup[cols_global] if total else cols_global,
            row=np.repeat(np.arange(owned.size, dtype=np.int64), counts),
            flat=flat,
            degrees=counts,
        )


class ShardSlab:
    """A :class:`BulkGraph`-operator-compatible view of one shard.

    Implements exactly the operator subset the vectorized kernels use, with
    the ghost-boundary exchange embedded in each operator: publish owned
    values to the shared mailbox, barrier, read ghost values, barrier.
    Kernels therefore run on owned-length arrays without knowing they are
    sharded.  All shards must call the operators in the same order (the
    kernels' control flow guarantees this); a shard owning zero vertices
    still participates in every exchange.
    """

    def __init__(
        self,
        layout: ShardLayout,
        nodes: Sequence[Hashable],
        mail: np.ndarray,
        barrier,
    ) -> None:
        self.layout = layout
        self.n = int(layout.owned.size)
        self.nodes: tuple[Hashable, ...] = tuple(nodes)
        # Owned nodes' *global* positions: the coin streams key on them, so
        # a slab flips the coins the whole graph would.
        self.node_index = layout.owned
        self.degrees = layout.degrees
        self._mail = mail
        self._barrier = barrier
        self._nonempty = np.flatnonzero(layout.degrees > 0)
        self._nonempty_starts = layout.indptr[self._nonempty]

    # ------------------------------------------------------------------ #
    # Superstep exchange                                                  #
    # ------------------------------------------------------------------ #

    def _exchange(self, values: np.ndarray) -> np.ndarray:
        """One superstep: publish owned values, read back the ghost frontier."""
        self._mail[self.layout.owned] = values
        self._barrier.wait(_BARRIER_TIMEOUT)
        ghost_values = self._mail[self.layout.ghosts].copy()
        self._barrier.wait(_BARRIER_TIMEOUT)
        return ghost_values

    def sync(self) -> None:
        """Plain barrier, for protocol steps outside the operators."""
        self._barrier.wait(_BARRIER_TIMEOUT)

    def read_mail_owned(self) -> np.ndarray:
        """Read this shard's slice of a driver-published full-length vector."""
        values = self._mail[self.layout.owned].copy()
        self.sync()
        return values

    # ------------------------------------------------------------------ #
    # Neighbourhood operators (mirroring BulkGraph bit for bit)           #
    # ------------------------------------------------------------------ #

    def neighbor_sum(
        self,
        values: np.ndarray,
        edge_mask: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-node open-neighbourhood sum; row order matches the global CSR.

        ``edge_mask`` (one bool per *slab* position, e.g. from a
        :class:`~repro.simulator.fault_schedule.SlabScheduleView`) drops
        masked-out entries from the accumulation, exactly as the
        whole-graph operator does for the matching global positions.
        ``rows`` picks the listed owned rows out of the full slab pass (the
        exchange is a superstep every shard must join).
        """
        ghost_values = self._exchange(values)
        combined = np.concatenate(
            (np.asarray(values, dtype=np.float64), ghost_values)
        )
        if edge_mask is None:
            sums = np.bincount(
                self.layout.row,
                weights=combined[self.layout.col],
                minlength=self.n,
            )
        else:
            edge_mask = np.asarray(edge_mask, dtype=bool)
            sums = np.bincount(
                self.layout.row[edge_mask],
                weights=combined[self.layout.col[edge_mask]],
                minlength=self.n,
            )
        return sums if rows is None else sums[rows]

    def neighbor_count(
        self, flags: np.ndarray, edge_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-node count of set flags over the open neighbourhood."""
        ghost_flags = self._exchange(flags)
        combined = np.concatenate(
            (np.asarray(flags, dtype=bool), ghost_flags.astype(bool))
        )
        mask = combined[self.layout.col]
        if edge_mask is not None:
            mask = mask & np.asarray(edge_mask, dtype=bool)
        return np.bincount(self.layout.row[mask], minlength=self.n)

    def closed_max(
        self,
        values: np.ndarray,
        senders: np.ndarray | None = None,
        edge_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-node closed-neighbourhood maximum (no sender masking).

        ``edge_mask`` suppresses individual slab entries (dropped
        messages); the node's own value always participates, matching
        :meth:`BulkGraph.closed_max`.
        """
        if senders is not None:
            raise NotImplementedError(
                "sender-masked closed_max is not used by the sharded kernels"
            )
        values = np.asarray(values)
        ghost_values = self._exchange(values)
        combined = np.concatenate((values, ghost_values.astype(values.dtype)))
        result = values.copy()
        if self.layout.col.size:
            contributions = combined[self.layout.col]
            if edge_mask is not None:
                floor = (
                    np.iinfo(values.dtype).min
                    if np.issubdtype(values.dtype, np.integer)
                    else -np.inf
                )
                contributions = np.where(
                    np.asarray(edge_mask, dtype=bool), contributions, floor
                )
            row_max = np.maximum.reduceat(contributions, self._nonempty_starts)
            result[self._nonempty] = np.maximum(values[self._nonempty], row_max)
        return result

    def neighbor_any(
        self, flags: np.ndarray, edge_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Whether any open-neighbourhood flag is set, per node."""
        return self.neighbor_count(flags, edge_mask=edge_mask) > 0

    def degree_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """Owned nodes' ``(δ⁽¹⁾, δ⁽²⁾)``: two exchanges on every call.

        Never cached, so a respawned shard replays the same supersteps
        as its peers.
        """
        delta_one = self.closed_max(self.degrees)
        return delta_one, self.closed_max(delta_one)


# ---------------------------------------------------------------------- #
# Worker process                                                          #
# ---------------------------------------------------------------------- #


def _slab_schedule_view(
    slab: ShardSlab, indptr: np.ndarray, col: np.ndarray, pieces: tuple | None
):
    """Re-materialize the driver's fault schedule, sliced to this slab.

    ``pieces`` are the schedule's small picklable parts (spec, salt,
    rounds, prior-phase deaths; ``None`` for a fault-free command).  The
    masks are pure functions of ``(seed, salt, round)`` over the global
    CSR, so rebuilding them against the shared-memory CSR yields a
    schedule identical to the driver's, and ``slab_view`` hands the kernel
    exactly the global decisions for this shard's entries.
    """
    if pieces is None:
        return None
    spec, salt, rounds, already_dead = pieces
    schedule = FaultSchedule(
        spec=spec,
        indptr=indptr,
        col=col,
        rounds=rounds,
        salt=salt,
        already_dead=already_dead,
    )
    return schedule.slab_view(slab.layout.owned, slab.layout.flat)


def _execute_command(
    slab: ShardSlab, command: tuple, indptr: np.ndarray, col: np.ndarray
):
    """Run one driver command on this shard's slab (unmodified kernels).

    Each algorithm command carries its kernel's arguments minus the graph
    (the schedule as its picklable pieces); vectors too large for a pipe
    -- per-node costs, the x-vector to round -- arrive via the mailbox.
    """
    op = command[0]
    if op == "alg2":
        _, k_values, delta, weighted, c_max, pieces = command
        costs = slab.read_mail_owned() if weighted else None
        return run_algorithm2_bulk_multi_k(
            slab,
            k_values,
            delta,
            costs=costs,
            c_max=c_max,
            schedule=_slab_schedule_view(slab, indptr, col, pieces),
        )
    if op == "alg3":
        _, k_values, pieces = command
        return run_algorithm3_bulk_multi_k(
            slab, k_values, schedule=_slab_schedule_view(slab, indptr, col, pieces)
        )
    if op == "rounding":
        _, seeds, multiplier_for, pieces = command
        x = slab.read_mail_owned()
        return run_rounding_bulk_batched(
            slab,
            x,
            seeds,
            multiplier_for,
            schedule=_slab_schedule_view(slab, indptr, col, pieces),
        )
    if op == "rss":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    raise ValueError(f"unknown shard command {op!r}")


def _shard_worker(
    shard_id: int,
    shards: int,
    conn,
    barrier,
    indptr: np.ndarray,
    col: np.ndarray,
    degrees: np.ndarray,
    mail: np.ndarray,
    nodes: Sequence[Hashable],
) -> None:
    """Worker main loop: build the slab, then serve driver commands."""
    try:
        layout = ShardLayout.build(indptr, col, shard_id=shard_id, shards=shards)
        # Slab degrees come from the shared-memory degree segment (they
        # equal the local row counts by the CSR invariant).
        layout.degrees = degrees[layout.owned]
        slab = ShardSlab(
            layout,
            tuple(nodes[position] for position in layout.owned.tolist()),
            mail,
            barrier,
        )
        conn.send(("ready", layout.owned))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        return
    while True:
        try:
            command = conn.recv()
        except EOFError:
            return
        if command[0] == "stop":
            return
        try:
            conn.send(("ok", _execute_command(slab, command, indptr, col)))
        except BaseException:
            # Break the barrier so peer shards blocked mid-superstep fail
            # fast instead of waiting out the timeout.
            barrier.abort()
            conn.send(("error", traceback.format_exc()))


# ---------------------------------------------------------------------- #
# Driver                                                                  #
# ---------------------------------------------------------------------- #


def _merge_metrics(parts: Sequence[ExecutionMetrics]) -> ExecutionMetrics:
    """Exact merge of per-shard metrics into the global ExecutionMetrics.

    Shards execute in lockstep, so every part has the same round layout;
    per-round messages and bits add exactly (integers), per-round maxima
    combine with ``max``, and the per-node dicts are a disjoint union.
    """
    round_counts = {len(part.rounds) for part in parts}
    if len(round_counts) != 1:
        raise RuntimeError(
            f"shard lockstep violated: per-shard round counts {sorted(round_counts)}"
        )
    merged = ExecutionMetrics()
    for index in range(round_counts.pop()):
        rounds = [part.rounds[index] for part in parts]
        merged.rounds.append(
            RoundMetrics(
                round_index=rounds[0].round_index,
                messages_sent=sum(entry.messages_sent for entry in rounds),
                total_bits=sum(entry.total_bits for entry in rounds),
                max_message_bits=max(entry.max_message_bits for entry in rounds),
                active_nodes=sum(entry.active_nodes for entry in rounds),
            )
        )
    for part in parts:
        merged.messages_per_node.update(part.messages_per_node)
        merged.bits_per_node.update(part.bits_per_node)
    return merged


def _schedule_pieces(schedule: FaultSchedule | None) -> tuple | None:
    """A schedule's picklable parts, rebuilt by :func:`_slab_schedule_view`."""
    if schedule is None:
        return None
    return (schedule.spec, schedule.salt, schedule.rounds, schedule.already_dead)


def _reject_traces(traces) -> None:
    if traces:
        raise ValueError(
            "the sharded engine records no traces; use the vectorized backend"
        )


class ShardDegradationWarning(RuntimeWarning):
    """The sharded engine lost workers and fell back to single-process.

    Structured so callers (and tests) can inspect what failed without
    parsing the message: ``shard_ids`` are the workers that died,
    ``exit_codes`` their exit codes (aligned with ``shard_ids``), and
    ``command`` the name of the command that was being replayed when the
    respawn budget ran out.
    """

    def __init__(
        self,
        message: str,
        shard_ids: tuple[int, ...] = (),
        exit_codes: tuple[int | None, ...] = (),
        command: str | None = None,
    ) -> None:
        super().__init__(message)
        self.shard_ids = shard_ids
        self.exit_codes = exit_codes
        self.command = command


class ShardedDriver:
    """Parent-side driver for a pool of shard workers over one graph.

    Owns the shared-memory segments (CSR ``indptr``/``col``, the degree
    array, and the float64 x-vector mailbox), forks one worker per shard,
    and turns kernel invocations into broadcast commands.  Workers stay
    resident between phases, so a pipeline (fractional solve + rounding)
    pays partitioning and process start-up once.

    The driver is crash tolerant: while waiting on replies it heartbeats
    every worker (``heartbeat`` seconds).  A worker found dead aborts the
    superstep barrier so its peers fail fast, gets respawned (up to
    ``max_respawns`` workers over the driver's lifetime), and the whole
    command -- including any mailbox payload -- is replayed; determinism
    makes the replay bitwise identical to an uninterrupted run.  Once the
    budget is exhausted the driver emits a
    :class:`ShardDegradationWarning` and serves this and all later
    commands on the single-process vectorized backend in the parent.

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        bulk: BulkGraph,
        shards: int | None = None,
        heartbeat: float = 1.0,
        max_respawns: int = 2,
    ) -> None:
        if not isinstance(bulk, BulkGraph):
            raise TypeError("ShardedDriver requires a BulkGraph")
        if heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        self.shards = resolve_shard_count(shards)
        self.n = bulk.n
        self._bulk = bulk
        self._heartbeat = float(heartbeat)
        self._max_respawns = int(max_respawns)
        self._respawns_used = 0
        self._degraded = False
        self._closed = False
        self._mail = None
        self._degrees = None
        self._shms: list[shared_memory.SharedMemory] = []
        self._procs: list[multiprocessing.Process] = []
        self._conns: list = []
        self._broken = False

        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the sharded backend requires the 'fork' multiprocessing "
                "start method (POSIX); use backend='vectorized' instead"
            )
        context = multiprocessing.get_context("fork")
        self._context = context

        try:
            self._indptr = self._share(bulk.indptr)
            self._col = self._share(bulk.col)
            # The degree array rides in shared memory alongside the CSR so
            # worker slabs slice it instead of re-deriving private copies.
            self._degrees = self._share(bulk.degrees)
            self._mail = self._share(np.zeros(self.n, dtype=np.float64))
            self._barrier = context.Barrier(self.shards)
            self._nodes = bulk.nodes
            for shard_id in range(self.shards):
                process, parent_conn = self._spawn(shard_id)
                self._procs.append(process)
                self._conns.append(parent_conn)
            self._owned = self._collect()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def _share(self, array: np.ndarray) -> np.ndarray:
        """Copy an array into a shared-memory segment; return the view."""
        shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        self._shms.append(shm)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[:] = array
        return view

    def _spawn(self, shard_id: int):
        """Fork one shard worker; returns ``(process, parent_conn)``."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_shard_worker,
            args=(
                shard_id,
                self.shards,
                child_conn,
                self._barrier,
                self._indptr,
                self._col,
                self._degrees,
                self._mail,
                self._nodes,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def __enter__(self) -> "ShardedDriver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def close(self) -> None:
        """Stop the workers and release the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self._procs:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        # Drop the views before unlinking so the buffers are not exported.
        self._mail = None
        self._degrees = None
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._shms = []

    # ------------------------------------------------------------------ #
    # Command plumbing                                                    #
    # ------------------------------------------------------------------ #

    def _collect(self) -> list:
        """Strict reply collection (start-up handshake): any death is fatal."""
        results = []
        errors = []
        for shard_id, (conn, process) in enumerate(zip(self._conns, self._procs)):
            while not conn.poll(self._heartbeat):
                if not process.is_alive():
                    self._broken = True
                    raise RuntimeError(
                        f"shard worker {shard_id} died unexpectedly "
                        f"(exit code {process.exitcode})"
                    )
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                self._broken = True
                raise RuntimeError(
                    f"shard worker {shard_id} died unexpectedly "
                    f"(exit code {process.exitcode})"
                )
            if status == "error":
                errors.append((shard_id, payload))
            else:
                results.append(payload)
        if errors:
            self._broken = True
            shard_id, payload = errors[0]
            raise RuntimeError(
                f"shard worker {shard_id} failed:\n{payload}"
            )
        return results

    def _attempt(self, command: tuple) -> tuple[dict, dict, list[int]]:
        """One broadcast/collect pass, surviving worker deaths.

        Returns ``(results, errors, dead)``: per-shard "ok" payloads,
        per-shard error tracebacks, and the shards found dead.  On the
        first death the superstep barrier is aborted so surviving workers
        fail their in-flight command fast and park back on their pipes --
        a precondition for safely resetting the barrier during recovery.
        """
        dead: list[int] = []
        delivered: list[int] = []
        for shard_id, conn in enumerate(self._conns):
            try:
                conn.send(command)
                delivered.append(shard_id)
            except (BrokenPipeError, OSError):
                dead.append(shard_id)
        if dead:
            self._barrier.abort()
        results: dict[int, object] = {}
        errors: dict[int, str] = {}
        for shard_id in delivered:
            if shard_id in dead:
                continue
            conn = self._conns[shard_id]
            reply = None
            while True:
                if conn.poll(self._heartbeat):
                    # A worker killed mid-reply leaves the pipe readable
                    # with EOF, so poll() returns True without a message.
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        dead.append(shard_id)
                        self._barrier.abort()
                    break
                newly_dead = [
                    peer
                    for peer in delivered
                    if peer not in dead and not self._procs[peer].is_alive()
                ]
                if newly_dead:
                    dead.extend(newly_dead)
                    # Release peers blocked mid-superstep; they error out
                    # and reply, so this loop still terminates.
                    self._barrier.abort()
                    if shard_id in newly_dead:
                        break
            if reply is None:
                continue
            status, payload = reply
            if status == "error":
                errors[shard_id] = payload
            else:
                results[shard_id] = payload
        return results, errors, dead

    def _recover(self, dead: list[int]) -> bool:
        """Respawn dead workers within budget; False = budget exhausted.

        Callers guarantee every surviving worker has replied to the
        aborted command (so nobody can touch the barrier) before the
        barrier is reset and replacements are forked.
        """
        self._respawns_used += len(dead)
        if self._respawns_used > self._max_respawns:
            return False
        self._barrier.reset()
        for shard_id in dead:
            try:
                self._conns[shard_id].close()
            except OSError:
                pass
            self._procs[shard_id].join(timeout=1.0)
            process, parent_conn = self._spawn(shard_id)
            self._procs[shard_id] = process
            self._conns[shard_id] = parent_conn
            while not parent_conn.poll(self._heartbeat):
                if not process.is_alive():
                    return False
            try:
                status, payload = parent_conn.recv()
            except (EOFError, OSError):
                return False
            if status != "ready":
                return False
            self._owned[shard_id] = payload
        return True

    def _request(
        self, command: tuple, mail_payload: np.ndarray | None = None
    ) -> list | None:
        """Broadcast a command with crash recovery and replay.

        ``mail_payload`` is re-published into the mailbox before every
        attempt (supersteps overwrite the mailbox, so a replayed command
        must not read a clobbered payload).  Returns the per-shard
        replies in shard order, or ``None`` when the driver degraded to
        single-process fallback (the caller then runs the equivalent
        vectorized kernel on the whole graph).
        """
        if self._closed:
            raise RuntimeError("ShardedDriver is closed")
        if self._broken:
            raise RuntimeError("ShardedDriver is broken")
        while not self._degraded:
            if mail_payload is not None:
                self._mail[:] = mail_payload
            results, errors, dead = self._attempt(command)
            if not dead:
                if errors:
                    self._broken = True
                    shard_id = min(errors)
                    raise RuntimeError(
                        f"shard worker {shard_id} failed:\n{errors[shard_id]}"
                    )
                return [results[shard_id] for shard_id in range(self.shards)]
            exit_codes = tuple(self._procs[shard_id].exitcode for shard_id in dead)
            if self._recover(dead):
                continue
            self._degraded = True
            warnings.warn(
                ShardDegradationWarning(
                    f"shard worker(s) {sorted(dead)} died "
                    f"(exit codes {list(exit_codes)}) during {command[0]!r} and "
                    f"the respawn budget (max_respawns={self._max_respawns}) "
                    "is exhausted; degrading to the single-process "
                    "vectorized backend",
                    shard_ids=tuple(sorted(dead)),
                    exit_codes=exit_codes,
                    command=str(command[0]),
                ),
                stacklevel=3,
            )
        return None

    def _gather(self, owned_arrays: Sequence[np.ndarray], dtype) -> np.ndarray:
        """Scatter per-shard owned-length arrays back into global order."""
        full = np.empty(self.n, dtype=dtype)
        for owned, values in zip(self._owned, owned_arrays):
            full[owned] = values
        return full

    # ------------------------------------------------------------------ #
    # Superstep programs                                                  #
    # ------------------------------------------------------------------ #
    #
    # One method per kernel of :mod:`repro.core.vectorized`, taking its
    # arguments minus the graph.  Workers re-materialize a fault schedule
    # from its small picklable pieces against the shared CSR, so the full
    # per-round masks never cross the pipes.  After degradation each
    # method runs its kernel on the whole graph in the parent.

    def _snapshots(
        self, replies: list, k_values: Sequence[int]
    ) -> dict[int, tuple[np.ndarray, ExecutionMetrics]]:
        """Merge per-shard ``{k: (x, metrics)}`` replies into global ones."""
        return {
            k: (
                self._gather([reply[k][0] for reply in replies], np.float64),
                _merge_metrics([reply[k][1] for reply in replies]),
            )
            for k in k_values
        }

    def run_algorithm2_multi_k(
        self,
        k_values: Sequence[int],
        delta: int,
        costs: np.ndarray | None = None,
        c_max: float = 1.0,
        schedule: FaultSchedule | None = None,
        traces=None,
    ) -> dict[int, tuple[np.ndarray, ExecutionMetrics]]:
        """Algorithm 2 as sharded supersteps; per-node costs ride the mailbox."""
        _reject_traces(traces)
        k_values = tuple(validate_k(k) for k in k_values)
        if costs is not None:
            costs = np.asarray(costs, dtype=np.float64)
        command = (
            "alg2", k_values, delta, costs is not None, float(c_max),
            _schedule_pieces(schedule),
        )
        replies = self._request(command, mail_payload=costs)
        if replies is None:
            return BulkKernels(self._bulk).run_algorithm2_multi_k(
                k_values, delta, costs=costs, c_max=c_max, schedule=schedule
            )
        return self._snapshots(replies, k_values)

    def run_algorithm3_multi_k(
        self,
        k_values: Sequence[int],
        schedule: FaultSchedule | None = None,
        traces=None,
    ) -> dict[int, tuple[np.ndarray, ExecutionMetrics]]:
        """Algorithm 3 (Δ unknown) as sharded supersteps."""
        _reject_traces(traces)
        k_values = tuple(validate_k(k) for k in k_values)
        replies = self._request(("alg3", k_values, _schedule_pieces(schedule)))
        if replies is None:
            return BulkKernels(self._bulk).run_algorithm3_multi_k(
                k_values, schedule=schedule
            )
        return self._snapshots(replies, k_values)

    def run_rounding_batched(
        self,
        x: np.ndarray,
        seeds: Sequence[int | None],
        multiplier_for: Callable[[int], float],
        schedule: FaultSchedule | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, ExecutionMetrics]]:
        """Algorithm 1 for many seeds over one x-vector (mailbox-published).

        ``multiplier_for`` crosses the worker pipes, so it must pickle (a
        :func:`functools.partial` of a module-level function does).
        """
        x = np.asarray(x, dtype=np.float64)
        # An unseeded trial gets one fresh seed for all shards (and any
        # replay), so its coins come from one run key.
        seeds = tuple(secrets.randbits(64) if seed is None else seed for seed in seeds)
        command = ("rounding", seeds, multiplier_for, _schedule_pieces(schedule))
        replies = self._request(command, mail_payload=x)
        if replies is None:
            return BulkKernels(self._bulk).run_rounding_batched(
                x, seeds, multiplier_for, schedule=schedule
            )
        return [
            (
                *(
                    self._gather([reply[trial][column] for reply in replies], np.bool_)
                    for column in range(3)
                ),
                _merge_metrics([reply[trial][3] for reply in replies]),
            )
            for trial in range(len(seeds))
        ]

    def peak_rss_bytes(self) -> list[int]:
        """Per-shard worker peak RSS in bytes (``ru_maxrss``), shard order.

        After degradation to single-process fallback this reports the
        parent's own peak RSS (one entry), since no workers remain.
        """
        replies = self._request(("rss",))
        if replies is None:
            return [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024]
        return replies
