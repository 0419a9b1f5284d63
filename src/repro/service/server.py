"""The :class:`SolveService` facade: submit / await / stats / drain.

Composes the service layer's three parts into one object:

* :mod:`repro.service.keys` mints a content-addressed key per request
  (graph CSR content + algorithm + normalized params + seed);
* :class:`repro.service.cache.ResultCache` answers repeats instantly and
  LRU-bounds memory;
* :class:`repro.service.scheduler.BatchScheduler` queues misses with
  backpressure, coalesces same-graph multi-k groups onto the snapshot
  engine, and executes on a thread pool (heavy requests fan out further
  into the sharded multiprocess driver from their worker thread).

Each graph object is checked and converted to its CSR once, for its
fingerprint, and fresh requests on a bulk engine run on that CSR -- so a
submitted graph is treated as immutable (mutate a copy instead).

Identical requests *in flight* are deduplicated too: a second submission
of a key that is still executing attaches to the first one's future
instead of queueing a duplicate computation.  Per-request timeouts are
waiter-local -- a caller that stops waiting abandons its claim, and only
when every claim on a not-yet-started request is abandoned does the
scheduler skip the work.

Typical use::

    async with SolveService() as service:
        report = await service.solve("kuhn-wattenhofer", graph, k=2, seed=0)
        reports = await service.solve_many([
            {"algorithm": "kuhn-wattenhofer", "graph": graph, "seed": 0,
             "params": {"k": k}}
            for k in (1, 2, 3, 4)
        ])
        service.stats()

``async with`` (or an explicit :meth:`close`) drains gracefully: queued
and in-flight requests complete, then the dispatcher and executor shut
down.  Fault/repair scenarios pass straight through: ``params`` may carry
``faults=FaultSpec(...)`` and ``repair=`` exactly as
:func:`repro.api.solve` accepts them, and the resulting reports keep
their ``repair`` / ``fault_summaries`` accessors.
"""

from __future__ import annotations

import asyncio
import time
import weakref
from typing import Any, Mapping, Sequence

import networkx as nx

from repro.analysis.stats import latency_summary
from repro.api import AUTO, AlgorithmSpec, RunReport, get_spec, resolve_backend
from repro.core.vectorized import SHARDED, VECTORIZED, resolve_bulk_input
from repro.service.cache import ResultCache
from repro.service.keys import cache_key, coalesce_key, graph_fingerprint
from repro.service.scheduler import (
    BatchScheduler,
    ServiceClosedError,
    ServiceRequest,
)
from repro.simulator.bulk import BulkGraph

__all__ = ["SolveService", "ServiceClosedError"]


def _run_graph(
    spec: AlgorithmSpec, graph, csr: BulkGraph | None, backend: str, params
) -> nx.Graph | BulkGraph:
    """The graph a fresh request runs on.

    The fingerprint's CSR wherever a bulk engine of ``spec`` runs the
    request (backend parity makes it the same run), else ``graph``.
    """
    if csr is None or not spec.accepts_bulk:
        return graph
    try:
        backend = resolve_backend(
            spec, graph, backend, params.get("collect_trace"), params.get("shards")
        )
    except ValueError:
        return graph  # solve() raises it, from the request's future
    return csr if backend in (VECTORIZED, SHARDED) else graph


class SolveService:
    """Async, cached, batch-scheduled front end over :func:`repro.api.solve`.

    Parameters
    ----------
    cache_entries:
        Capacity of the content-addressed LRU result cache.
    max_pending:
        Scheduler queue bound; submissions await once it is full
        (backpressure).
    max_batch:
        Largest batch the dispatcher coalesces over in one sweep.
    workers:
        Executor thread count (each sharded solve spawns its worker
        *processes* from inside its thread).
    default_timeout:
        Per-request await timeout in seconds (``None``: wait forever);
        individual calls may override.
    """

    def __init__(
        self,
        cache_entries: int = 1024,
        max_pending: int = 256,
        max_batch: int = 64,
        workers: int = 2,
        default_timeout: float | None = None,
    ) -> None:
        self.cache = ResultCache(max_entries=cache_entries)
        self.scheduler = BatchScheduler(
            max_pending=max_pending, max_batch=max_batch, workers=workers
        )
        self.default_timeout = default_timeout
        self._pending: dict[str, ServiceRequest] = {}
        self._graph_hashes: (
            "weakref.WeakKeyDictionary[Any, tuple[str, BulkGraph | None]]"
        ) = weakref.WeakKeyDictionary()
        self._started = False
        self._closed = False
        self._requests = 0
        self._completed = 0
        self._failed = 0
        self._timeouts = 0
        self._inflight_joins = 0
        self._latencies_s: list[float] = []

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Start the scheduler's dispatcher (idempotent)."""
        if self._closed:
            raise ServiceClosedError("service has been closed")
        await self.scheduler.start()
        self._started = True

    async def close(self, drain: bool = True) -> None:
        """Stop accepting requests, drain gracefully, release resources.

        With ``drain=True`` (the default) every queued and in-flight
        request runs to completion -- submitted work is never dropped on
        shutdown; with ``drain=False`` unstarted requests are abandoned.
        """
        if self._closed:
            return
        self._closed = True
        await self.scheduler.close(drain=drain)

    async def drain(self) -> None:
        """Wait for every queued and in-flight request to complete."""
        await self.scheduler.drain()

    async def __aenter__(self) -> "SolveService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # Submission                                                         #
    # ------------------------------------------------------------------ #

    def _graph_hash(self, graph: nx.Graph | BulkGraph) -> tuple[str, BulkGraph | None]:
        """Memoized ``(fingerprint, csr)``: one check and one CSR per object.

        A valid networkx graph's CSR is kept next to its digest and lives
        as long as the graph object, which is why a submitted graph is
        treated as immutable.  A :class:`BulkGraph` keeps only its digest
        (a value holding the key would pin it), and an invalid graph is
        digested as submitted and runs that way, so ``solve()`` rejects it;
        one that cannot be digested (self loops) raises the check's error.
        """
        try:
            cached = self._graph_hashes.get(graph)
        except TypeError:  # unhashable/weakref-less graph type
            cached = None
        if cached is None:
            csr = None
            if not isinstance(graph, BulkGraph):
                try:
                    csr = resolve_bulk_input(graph, VECTORIZED)
                except ValueError as error:
                    invalid = error
            try:
                cached = (graph_fingerprint(graph if csr is None else csr), csr)
            except ValueError:
                raise invalid from None
            try:
                self._graph_hashes[graph] = cached
            except TypeError:
                pass
        return cached

    async def _begin(
        self,
        algorithm: str,
        graph: nx.Graph | BulkGraph,
        backend: str,
        seed: int | None,
        params: Mapping[str, Any],
    ) -> tuple:
        """Resolve one submission to a hit, a join, a fresh request, or
        the error of a graph that cannot be keyed.

        Awaits only on queue backpressure, so a caller enqueueing a burst
        (:meth:`solve_many`) keeps the whole burst inside one batching
        window whenever the queue has capacity.
        """
        if self._closed:
            raise ServiceClosedError("service has been closed")
        if not self._started:
            await self.start()
        started = time.perf_counter()
        self._requests += 1
        spec = get_spec(algorithm)
        params = dict(params)
        try:
            graph_hash, csr = self._graph_hash(graph)
        except ValueError as error:
            # Fails through the request, like every error solve() raises.
            self._failed += 1
            return ("error", error, started)
        key = cache_key(spec, graph, seed=seed, params=params, graph_hash=graph_hash)
        cached = self.cache.get(key)
        if cached is not None:
            return ("hit", cached, started)
        request = self._pending.get(key)
        if request is not None:
            self._inflight_joins += 1
            request.waiters += 1
            return ("wait", request, started)
        request = ServiceRequest(
            algorithm=spec.name,
            graph=_run_graph(spec, graph, csr, backend, params),
            backend=backend,
            seed=seed,
            params=params,
            key=key,
            coalesce_key=coalesce_key(
                spec,
                graph,
                seed=seed,
                params=params,
                backend=backend,
                graph_hash=graph_hash,
            ),
            future=asyncio.get_running_loop().create_future(),
            waiters=1,
        )
        self._pending[key] = request
        request.future.add_done_callback(
            lambda future, key=key: self._settle(key, future)
        )
        try:
            await self.scheduler.submit(request)
        except BaseException:
            self._pending.pop(key, None)
            request.waiters -= 1
            raise
        return ("wait", request, started)

    def _settle(self, key: str, future: asyncio.Future) -> None:
        """Completion hook: publish to the cache, retire the pending slot."""
        self._pending.pop(key, None)
        if future.cancelled():
            return
        error = future.exception()  # retrieves it -- no unretrieved warnings
        if error is not None:
            self._failed += 1
            return
        self.cache.put(key, future.result())

    async def _finish(
        self, outcome: tuple, timeout: float | None
    ) -> RunReport:
        kind, payload, started = outcome
        if kind == "error":
            raise payload
        if kind == "hit":
            self._completed += 1
            self._latencies_s.append(time.perf_counter() - started)
            return payload
        request: ServiceRequest = payload
        try:
            report = await asyncio.wait_for(
                asyncio.shield(request.future), timeout
            )
        except asyncio.TimeoutError:
            # This waiter gives up its claim; the computation itself keeps
            # running (other waiters, and the cache, still want it) unless
            # every claim is abandoned before it starts.
            request.waiters -= 1
            self._timeouts += 1
            raise
        except asyncio.CancelledError:
            request.waiters -= 1
            raise
        self._completed += 1
        self._latencies_s.append(time.perf_counter() - started)
        return report

    async def solve(
        self,
        algorithm: str,
        graph: nx.Graph | BulkGraph,
        backend: str = AUTO,
        seed: int | None = None,
        timeout: float | None = None,
        **params: Any,
    ) -> RunReport:
        """Submit one request and await its :class:`RunReport`.

        Semantics match :func:`repro.api.solve` exactly (same parameters,
        same errors, bitwise the same results -- served from the cache, a
        coalesced batch, or a fresh engine run as the scheduler decides).
        ``timeout`` (seconds; default the service's ``default_timeout``)
        bounds only this caller's wait, raising ``asyncio.TimeoutError``.
        """
        outcome = await self._begin(algorithm, graph, backend, seed, params)
        if timeout is None:
            timeout = self.default_timeout
        return await self._finish(outcome, timeout)

    async def solve_many(
        self,
        requests: Sequence[Mapping[str, Any]],
        timeout: float | None = None,
        return_exceptions: bool = False,
    ) -> list[RunReport | BaseException]:
        """Submit a burst and await all of it.

        Each request mapping carries ``algorithm``, ``graph`` and
        optionally ``backend``, ``seed`` and ``params`` (a dict of
        algorithm parameters).  The whole burst is enqueued *before* any
        result is awaited, which gives the scheduler the full window to
        coalesce same-graph multi-k groups and dedupe identical keys.
        """
        outcomes = []
        for request in requests:
            outcomes.append(
                await self._begin(
                    request["algorithm"],
                    request["graph"],
                    request.get("backend", AUTO),
                    request.get("seed"),
                    request.get("params", {}),
                )
            )
        if timeout is None:
            timeout = self.default_timeout
        return await asyncio.gather(
            *(self._finish(outcome, timeout) for outcome in outcomes),
            return_exceptions=return_exceptions,
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """One nested snapshot of service, cache and scheduler counters."""
        return {
            "requests": self._requests,
            "completed": self._completed,
            "failed": self._failed,
            "timeouts": self._timeouts,
            "inflight_joins": self._inflight_joins,
            "pending": self.scheduler.pending,
            "cache": {"entries": len(self.cache), **self.cache.stats.as_dict()},
            "scheduler": self.scheduler.stats.as_dict(),
            "latency": latency_summary(self._latencies_s),
        }
