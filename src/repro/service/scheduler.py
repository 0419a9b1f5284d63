"""Asyncio request queue with backpressure and batched scheduling.

The :class:`BatchScheduler` is the execution half of the solve service:
requests enter a bounded :class:`asyncio.Queue` (submission *awaits* when
the queue is full -- that is the backpressure contract), a single
dispatcher task drains them in adaptive batches, and each batch executes
on a thread-pool executor so the event loop never blocks on a solve --
including heavy requests that fan out further into the sharded
multiprocess driver from inside their worker thread.

Batching exists for one reason: **coalescing**.  Queued requests that
share a :func:`~repro.service.keys.coalesce_key` -- same graph content,
seed, and parameters, differing only in the locality parameter ``k`` --
are answered from *one* multi-k snapshot execution
(:func:`repro.core.fractional.approximate_fractional_mds_multi_k` /
:func:`repro.core.fractional_unknown.
approximate_fractional_mds_unknown_delta_multi_k`): the fractional phase
runs once for the whole group and each member's solution is rounded
under its own (shared) seed.  The snapshot engine's invariant -- per-k
results bitwise equal to independent runs, pinned by
``tests/core/test_multi_k_snapshots.py`` and re-gated end-to-end by
``benchmarks/bench_service_load.py`` -- is what makes this a pure
throughput optimisation: callers cannot observe whether their request
was coalesced.

Cancellation is cooperative: a request whose future is already done
(timed out and abandoned by every waiter, see
:meth:`repro.service.server.SolveService.solve`) is skipped at dispatch
time instead of burning an executor slot.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

from repro.api import (
    RunReport,
    get_spec,
    normalized_params,
    resolve_backend,
    solve,
)
from repro.core.fractional import approximate_fractional_mds_multi_k
from repro.core.fractional_unknown import (
    approximate_fractional_mds_unknown_delta_multi_k,
)
from repro.core.kuhn_wattenhofer import FractionalVariant, PipelineResult
from repro.core.rounding import (
    RoundingRule,
    round_fractional_solution,
    solution_feasibility,
)
from repro.core.vectorized import bulk_engine, resolve_bulk_input
from repro.domset.validation import is_dominating_set

_request_ids = itertools.count()


class ServiceClosedError(RuntimeError):
    """Raised when submitting to a scheduler/service that is shutting down."""


@dataclass
class ServiceRequest:
    """One queued solve request and its completion future."""

    algorithm: str
    graph: Any
    backend: str
    seed: int | None
    params: dict[str, Any]
    key: str
    coalesce_key: str | None
    future: asyncio.Future
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Waiters currently awaiting the future; when it drops to zero before
    #: execution starts the scheduler skips the request entirely.  The
    #: service tracks this per waiter; direct scheduler users keep the
    #: default of one waiter (never skipped).
    waiters: int = 1
    submitted_at: float = field(default_factory=time.perf_counter)

    @property
    def abandoned(self) -> bool:
        return self.waiters <= 0

    def resolve(self, report: RunReport) -> None:
        if not self.future.done():
            self.future.set_result(report)

    def fail(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)


@dataclass
class SchedulerStats:
    """Counters describing how the dispatcher turned requests into runs."""

    batches: int = 0
    solo_requests: int = 0
    coalesced_batches: int = 0
    coalesced_requests: int = 0
    failures: int = 0
    skipped: int = 0

    @property
    def executed_requests(self) -> int:
        return self.solo_requests + self.coalesced_requests

    @property
    def engine_executions(self) -> int:
        """Underlying engine runs paid (a coalesced batch counts once)."""
        return self.solo_requests + self.coalesced_batches

    @property
    def coalescing_factor(self) -> float:
        """Requests served per engine execution (1.0 = no coalescing won)."""
        if not self.engine_executions:
            return 1.0
        return self.executed_requests / self.engine_executions

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "solo_requests": self.solo_requests,
            "coalesced_batches": self.coalesced_batches,
            "coalesced_requests": self.coalesced_requests,
            "engine_executions": self.engine_executions,
            "coalescing_factor": self.coalescing_factor,
            "failures": self.failures,
            "skipped": self.skipped,
        }


def _coalesced_pipeline_reports(
    requests: Sequence[ServiceRequest],
) -> list[RunReport]:
    """Serve a coalesced group from one multi-k snapshot execution.

    Runs in a worker thread.  Mirrors
    :func:`repro.core.kuhn_wattenhofer.kuhn_wattenhofer_dominating_set`
    phase for phase -- one fractional execution covering every requested
    k, then one rounding per distinct k under the shared seed, the same
    feasibility/validation checks in the same order -- so each returned
    :class:`RunReport` is bitwise what an independent ``solve`` call
    would have produced (wall-clock aside).
    """
    base = requests[0]
    spec = get_spec(base.algorithm)
    graph = base.graph
    params = normalized_params(spec, base.params)
    variant = FractionalVariant(params.get("variant", FractionalVariant.UNKNOWN_DELTA))
    rule = RoundingRule(params.get("rounding_rule", RoundingRule.LOG))
    shards = params.get("shards")
    backend = resolve_backend(
        spec, graph, backend=base.backend, shards=shards
    )
    k_values = sorted({request.params["k"] for request in requests})

    started = time.perf_counter()
    bulk = resolve_bulk_input(graph, backend, csr=True)
    delta = bulk.max_degree
    multi_k = (
        approximate_fractional_mds_multi_k
        if variant is FractionalVariant.KNOWN_DELTA
        else approximate_fractional_mds_unknown_delta_multi_k
    )
    with bulk_engine(bulk, backend, shards) as executor:
        fractional_by_k = multi_k(
            graph,
            k_values,
            seed=base.seed,
            backend=backend,
            _bulk=bulk,
            _executor=executor,
        )
        results: dict[int, PipelineResult] = {}
        for k in k_values:
            fractional = fractional_by_k[k]
            feasible, _ = solution_feasibility(graph, fractional.x, _bulk=bulk)
            if not feasible:
                raise RuntimeError(
                    "fractional phase returned an infeasible LP solution; "
                    "this indicates a bug in the distributed algorithm"
                )
            rounding = round_fractional_solution(
                graph,
                fractional.x,
                seed=base.seed,
                rule=rule,
                require_feasible=False,
                backend=backend,
                _bulk=bulk,
                _executor=executor,
            )
            in_set = (
                rounding.dominating_set if rounding.in_set is None else rounding.in_set
            )
            if not is_dominating_set(bulk, in_set):
                raise RuntimeError(
                    "rounding phase returned a non-dominating set; "
                    "this indicates a bug in Algorithm 1's fallback step"
                )
            results[k] = PipelineResult(
                dominating_set=rounding.dominating_set,
                fractional=fractional,
                rounding=rounding,
                total_rounds=fractional.rounds + rounding.rounds,
                total_messages=fractional.metrics.total_messages
                + rounding.metrics.total_messages,
                max_message_bits=max(
                    fractional.metrics.max_message_bits,
                    rounding.metrics.max_message_bits,
                ),
                k=k,
                max_degree=delta,
                repair=None,
            )
    elapsed = time.perf_counter() - started

    reports = []
    for request in requests:
        result = results[request.params["k"]]
        report_params = dict(params)
        report_params["k"] = result.k
        reports.append(
            RunReport(
                algorithm=spec.name,
                backend=backend,
                dominating_set=result.dominating_set,
                objective=float(result.size),
                rounds=result.total_rounds,
                messages=result.total_messages,
                max_message_bits=result.max_message_bits,
                params=report_params,
                seed=request.seed,
                elapsed_s=elapsed,
                raw=result,
            )
        )
    return reports


def _solve_request(request: ServiceRequest) -> RunReport:
    """Run one request through the plain :func:`repro.api.solve` façade."""
    return solve(
        request.algorithm,
        request.graph,
        backend=request.backend,
        seed=request.seed,
        **request.params,
    )


class BatchScheduler:
    """Bounded request queue + adaptive batching dispatcher.

    Parameters
    ----------
    max_pending:
        Queue capacity; :meth:`submit` awaits (backpressure) once this
        many requests are queued and undispatched.
    max_batch:
        Largest batch the dispatcher drains in one sweep.  Coalescing
        happens *within* a batch, so larger values give bursts more
        opportunity to share engine runs.
    workers:
        Thread-pool width for executing solves (default: 2).  Heavy
        requests that resolve to the sharded engine spawn their worker
        processes from inside their thread, so a small pool suffices.
    max_concurrent_batches:
        In-flight batch cap (default: ``workers``); further batches wait,
        which in turn keeps the queue filling and coalescing effective.
    """

    def __init__(
        self,
        max_pending: int = 256,
        max_batch: int = 64,
        workers: int = 2,
        max_concurrent_batches: int | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.max_batch = max_batch
        self._queue: asyncio.Queue[ServiceRequest] = asyncio.Queue(maxsize=max_pending)
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._slot_count = max_concurrent_batches or workers
        self._slots: asyncio.Semaphore | None = None
        self._inflight: set[asyncio.Task] = set()
        self._dispatcher: asyncio.Task | None = None
        self._dispatch_error: BaseException | None = None
        self._accepting = False
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Start the dispatcher task (idempotent)."""
        if self._dispatcher is not None:
            return
        self._slots = asyncio.Semaphore(self._slot_count)
        self._accepting = True
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-service-dispatcher"
        )

    async def submit(self, request: ServiceRequest) -> None:
        """Enqueue one request; awaits when the queue is at capacity."""
        if not self._accepting:
            raise ServiceClosedError("scheduler is not accepting requests")
        await self._queue.put(request)

    async def drain(self) -> None:
        """Wait until every queued and in-flight request has completed."""
        await self._queue.join()
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)
        if self._dispatch_error is not None:
            error, self._dispatch_error = self._dispatch_error, None
            raise error

    async def close(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain, then tear the dispatcher down."""
        self._accepting = False
        if drain and self._dispatcher is not None:
            await self.drain()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for task in tuple(self._inflight):
            task.cancel()
        self._inflight.clear()
        self._executor.shutdown(wait=True)

    @property
    def pending(self) -> int:
        """Queued-but-undispatched request count."""
        return self._queue.qsize()

    # ------------------------------------------------------------------ #
    # Dispatch                                                           #
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        while True:
            request = await self._queue.get()
            batch = [request]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            # The slot gate keeps at most max_concurrent_batches executing;
            # while one executes, later arrivals pile up in the queue and
            # form larger (more coalescible) batches.
            await self._slots.acquire()
            task = asyncio.create_task(self._run_batch(batch))
            self._inflight.add(task)
            task.add_done_callback(self._batch_finished)

    def _batch_finished(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._slots.release()
        if not task.cancelled() and task.exception() is not None:
            # _run_batch failures land on request futures; anything that
            # escapes is a dispatcher bug.  Remember it so drain()/close()
            # re-raise instead of hanging callers silently.
            self._dispatch_error = task.exception()

    async def _run_batch(self, batch: list[ServiceRequest]) -> None:
        self.stats.batches += 1
        try:
            runnable: list[ServiceRequest] = []
            for request in batch:
                if request.future.done() or request.abandoned:
                    self.stats.skipped += 1
                    request.future.cancel()
                else:
                    runnable.append(request)
            groups: dict[str, list[ServiceRequest]] = {}
            solos: list[ServiceRequest] = []
            for request in runnable:
                if request.coalesce_key is None:
                    solos.append(request)
                else:
                    groups.setdefault(request.coalesce_key, []).append(request)
            jobs = []
            for group in groups.values():
                if len(group) >= 2:
                    jobs.append(self._run_coalesced(group))
                else:
                    solos.extend(group)
            jobs.extend(self._run_solo(request) for request in solos)
            if jobs:
                await asyncio.gather(*jobs)
        finally:
            for _ in batch:
                self._queue.task_done()

    async def _run_solo(self, request: ServiceRequest) -> None:
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                self._executor, partial(_solve_request, request)
            )
        except Exception as error:  # noqa: BLE001 -- handed to the caller
            self.stats.failures += 1
            request.fail(error)
        else:
            self.stats.solo_requests += 1
            request.resolve(report)

    async def _run_coalesced(self, group: list[ServiceRequest]) -> None:
        loop = asyncio.get_running_loop()
        try:
            reports = await loop.run_in_executor(
                self._executor, partial(_coalesced_pipeline_reports, group)
            )
        except Exception as error:  # noqa: BLE001 -- handed to the callers
            self.stats.failures += len(group)
            for request in group:
                request.fail(error)
        else:
            self.stats.coalesced_batches += 1
            self.stats.coalesced_requests += len(group)
            for request, report in zip(group, reports):
                request.resolve(report)
