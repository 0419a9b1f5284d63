"""``service-mixed``: a request stream into ``SolveService(workers=2)``.

The load has two parts, both precomputed from the workload seed:

1. an **open loop** of independent clients at one fixed rate for the
   measured seconds -- each request is timed from its *due* time, so a
   stall also charges the requests queued behind it, and the generator
   records how late it sent each one (``loadgen.lag_ms_p90``);
2. a **saturating burst** of the same mix, all due at once, which gives
   the completed-requests-per-second the service sustains.

The mix repeats one block of twenty requests in fixed proportions (only
seeds and order are drawn), so two seeds load the service alike:

* eight fresh single-k misses: six at n = 1024 (vectorized under
  ``auto``) and one each at n = 128 and 256 (simulated);
* one burst of k = 1..4 on one graph and seed (coalescible);
* six exact repeats of earlier requests, drawn from a pool smaller than
  the 1024-entry cache (hits, or in-flight joins);
* two fault/repair requests (the fault layer and ``repair``).

Graphs are networkx G(n, p) at n ∈ {128, 256, 1024}, built in setup;
the sizes straddle ``AUTO_VECTORIZE_THRESHOLD`` = 512.  The proportions
put the median latency inside the largest group of like requests, the
n = 1024 misses, rather than on the edge between two groups, where it
would jump from run to run.  Simulated requests are kept few because
each costs as much as several vectorized ones.

After the timed phases every distinct request is re-run through direct
``solve()`` and compared bitwise (set, objective, rounds, messages), and
every answer is re-validated with ``is_dominating_set`` on the CSR.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from workloads import Result, percentile

ALGORITHM = "kuhn-wattenhofer"


@dataclass
class Request:
    kind: str
    graph: Any
    seed: int
    params: dict

    @property
    def identity(self) -> tuple:
        return (id(self.graph), self.seed, tuple(sorted(map(repr, self.params.items()))))


@dataclass
class Answer:
    request: Request
    report: Any = None
    latency_s: float = 0.0
    error: str | None = None


@dataclass
class PhaseRun:
    open_answers: list[Answer] = field(default_factory=list)
    burst_answers: list[Answer] = field(default_factory=list)
    lags_s: list[float] = field(default_factory=list)
    burst_rates: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def answers(self) -> list[Answer]:
        return self.open_answers + self.burst_answers


class ServiceMixed:
    name = "service-mixed"
    sizes = (128, 256, 1024)
    graphs_per_size = 3
    mean_degree = 4.0
    #: Open-loop arrival rate, requests per second.
    rate = 10.0
    #: The saturating phase: ``bursts`` bursts of ``burst_blocks`` blocks
    #: each, sent one after the other; ``ops_per_s`` is their median rate.
    bursts = 5
    burst_blocks = 3
    repeats_per_block = 6
    #: Repeats are drawn from the most recent distinct requests only.
    repeat_pool = 256
    workers = 2
    timeout_s = 60.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{stream}")

    # -- setup ----------------------------------------------------------- #

    def setup(self) -> None:
        import repro.api  # noqa: F401
        import repro.domset.validation  # noqa: F401
        import repro.graphs.generators as generators
        import repro.lp.duality  # noqa: F401
        import repro.service.keys  # noqa: F401
        from repro.service.server import SolveService
        from repro.simulator.fault_schedule import FaultSpec  # noqa: F401

        rng = self._rng("graphs")
        self.graphs = {
            n: [
                generators.erdos_renyi_graph(
                    n, p=self.mean_degree / (n - 1), seed=rng.randrange(2**31)
                )
                for _ in range(self.graphs_per_size)
            ]
            for n in self.sizes
        }
        self.loop = asyncio.new_event_loop()
        self.service = SolveService(workers=self.workers, default_timeout=self.timeout_s)
        self.loop.run_until_complete(self.service.start())

    # -- load generation ------------------------------------------------- #

    def _block(self, rng: random.Random, index: int, pool: list[Request]) -> list[list[Request]]:
        """One block of the mix as a list of events (requests due together).

        Graphs are used round-robin and k values cycle with ``index``, so
        only seeds and order are random.
        """
        from repro.simulator.fault_schedule import FaultSpec

        def graph(n: int):
            return self.graphs[n][index % self.graphs_per_size]

        def fresh(kind: str, n: int, **params) -> list[Request]:
            return [Request(kind, graph(n), rng.randrange(2**31), params)]

        events = [fresh("miss", 1024, k=1 + (index + j) % 4) for j in range(6)]
        events += [
            fresh("miss", 128, k=1 + index % 2),
            fresh("miss", 256, k=1 + (index + 1) % 2),
        ]
        events += [
            fresh(
                "fault",
                1024,
                k=2,
                faults=FaultSpec(
                    loss_probability=0.05,
                    crash_probability=0.02,
                    seed=rng.randrange(2**31),
                ),
                repair=True,
            )
            for _ in range(2)
        ]
        burst_seed = rng.randrange(2**31)
        events.append(
            [Request("burst", graph(1024), burst_seed, {"k": k}) for k in (1, 2, 3, 4)]
        )
        rng.shuffle(events)
        # Repeats of earlier blocks' requests (of this block's, at its end,
        # when there is no earlier block).
        first = not pool
        candidates = [request for event in events for request in event] if first else list(pool)
        for event in events:
            pool.extend(event)
        del pool[: -self.repeat_pool]
        for _ in range(self.repeats_per_block):
            original = rng.choice(candidates)
            repeat = [Request("repeat", original.graph, original.seed, dict(original.params))]
            events.insert(len(events) if first else rng.randrange(len(events) + 1), repeat)
        return events

    def schedule(self, seconds: float):
        """``(open-loop events with due times, bursts of requests)``."""
        rng = self._rng("schedule")
        pool: list[Request] = []
        events: list[tuple[float, list[Request]]] = []
        due = 0.0
        block = 0
        while due < seconds:
            for event in self._block(rng, block, pool):
                due += len(event) / self.rate
                if due >= seconds:
                    break
                events.append((due, event))
            block += 1
        bursts: list[list[Request]] = []
        for _ in range(self.bursts):
            burst: list[Request] = []
            for _ in range(self.burst_blocks):
                for event in self._block(rng, block, pool):
                    burst.extend(event)
                block += 1
            bursts.append(burst)
        return events, bursts

    async def _client(self, service, request: Request, due: float) -> Answer:
        answer = Answer(request)
        try:
            answer.report = await service.solve(
                ALGORITHM, request.graph, seed=request.seed, **request.params
            )
        except Exception as error:  # noqa: BLE001 -- timeouts/refusals count as failed
            answer.error = repr(error)
        answer.latency_s = time.perf_counter() - due
        return answer

    async def _drive(self, service, events, bursts) -> PhaseRun:
        run = PhaseRun()
        tasks = []
        started = time.perf_counter()
        for due, event in events:
            due_at = started + due
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            run.lags_s.append(time.perf_counter() - due_at)
            for request in event:
                tasks.append(asyncio.create_task(self._client(service, request, due_at)))
        run.open_answers = list(await asyncio.gather(*tasks))
        for burst in bursts:
            burst_started = time.perf_counter()
            answers = await asyncio.gather(
                *(self._client(service, request, burst_started) for request in burst)
            )
            run.burst_answers += answers
            run.burst_rates.append(len(answers) / (time.perf_counter() - burst_started))
        run.wall_s = time.perf_counter() - started
        run.stats = service.stats()
        await service.close()
        return run

    def phase(self, seconds: float) -> PhaseRun:
        from repro.service.server import SolveService

        if self.service is None:
            self.service = SolveService(workers=self.workers, default_timeout=self.timeout_s)
        service, self.service = self.service, None
        events, bursts = self.schedule(seconds)
        return self.loop.run_until_complete(self._drive(service, events, bursts))

    # -- checks ---------------------------------------------------------- #

    def check(self, runs: list[PhaseRun], result: Result) -> dict[str, float]:
        """Validate every answer and compare each distinct request with a
        direct ``solve()``; returns the direct solve times by cache key."""
        from repro.api import get_spec, solve
        from repro.domset.validation import is_dominating_set
        from repro.lp.duality import lemma1_lower_bound
        from repro.service.keys import cache_key
        from repro.simulator.bulk import BulkGraph

        csr: dict[int, Any] = {}
        bounds: dict[int, float] = {}
        direct: dict[tuple, Any] = {}
        direct_s: dict[str, float] = {}
        ratios = []
        spec = get_spec(ALGORITHM)
        for run in runs:
            for answer in run.answers:
                result.attempted += 1
                if answer.error is not None:
                    result.failed += 1
                    result.errors.append(f"request failed: {answer.error}")
                    continue
                request, report = answer.request, answer.report
                graph_id = id(request.graph)
                if graph_id not in csr:
                    csr[graph_id] = BulkGraph.from_graph(request.graph)
                    bounds[graph_id] = lemma1_lower_bound(request.graph)
                if not is_dominating_set(csr[graph_id], report.dominating_set):
                    result.errors.append(f"{request.kind} answer does not dominate")
                identity = request.identity
                if identity not in direct:
                    started = time.perf_counter()
                    direct[identity] = solve(
                        ALGORITHM, request.graph, seed=request.seed, **request.params
                    )
                    key = cache_key(spec, request.graph, seed=request.seed, params=request.params)
                    direct_s[key] = time.perf_counter() - started
                    if "faults" not in request.params:
                        ratios.append(direct[identity].size / bounds[graph_id])
                expected = direct[identity]
                if (
                    report.dominating_set != expected.dominating_set
                    or report.objective != expected.objective
                    or report.rounds != expected.rounds
                    or report.messages != expected.messages
                ):
                    result.errors.append(
                        f"{request.kind} answer differs from direct solve "
                        f"(k={request.params.get('k')}, seed={request.seed})"
                    )
        self.ds_ratio = statistics.fmean(ratios)
        result.info["distinct_requests"] = len(direct)
        return direct_s

    # -- metrics --------------------------------------------------------- #

    def _end_to_end(self, run: PhaseRun, result: Result) -> None:
        latencies = [answer.latency_s for answer in run.open_answers]
        burst = len(run.burst_answers)
        result.metrics.update(
            {
                "op_s_p50": (statistics.median(latencies), "s"),
                "ops_per_s": (statistics.median(run.burst_rates), "ops/s"),
                "ds_ratio": (self.ds_ratio, "ratio"),
            }
        )
        result.samples.update(
            op_s_p50=len(latencies),
            ops_per_s=burst,
            ds_ratio=result.info["distinct_requests"],
        )
        kinds: dict[str, int] = {}
        for answer in run.answers:
            kinds[answer.request.kind] = kinds.get(answer.request.kind, 0) + 1
        result.info.update(
            open_loop_requests=len(latencies),
            burst_requests=burst,
            rate_per_s=self.rate,
            request_kinds=kinds,
            service_stats=run.stats,
        )

    def run(self, seconds: float, recorder=None, installation=None) -> Result:
        result = Result()
        try:
            if recorder is None:
                run = self.phase(seconds)
                self.check([run], result)
                self._end_to_end(run, result)
                return result
            import spans

            setup_spans = list(recorder.spans)
            traced = self.phase(seconds)
            traced_spans = recorder.spans[len(setup_spans):]
            installation.restore()
            reference = self.phase(seconds)
        finally:
            self.loop.close()
        direct_s = self.check([traced, reference], result)
        self._end_to_end(traced, result)
        requests = len(traced.answers)
        result.metrics = spans.layer_metrics(traced_spans, setup_spans, ops=requests)
        result.metrics.update(
            spans.service_metrics(
                {
                    "spans": traced_spans,
                    "requests": requests,
                    "stats": traced.stats,
                    "wall_s": traced.wall_s,
                    "workers": self.workers,
                    "lags_s": traced.lags_s,
                    "direct_s": direct_s,
                }
            )
        )
        traced_p50 = statistics.median(a.latency_s for a in traced.open_answers)
        reference_p50 = statistics.median(a.latency_s for a in reference.open_answers)
        result.metrics["trace_overhead_frac"] = (traced_p50 / reference_p50 - 1.0, "fraction")
        result.metrics["trace.op_s_p50"] = (traced_p50, "s")
        reference_latencies = [a.latency_s for a in reference.open_answers]
        result.metrics["op_s_p90"] = (percentile(reference_latencies, 90), "s")
        result.samples["trace_overhead_frac"] = len(reference_latencies)
        result.samples["op_s_p90"] = len(reference_latencies)
        return result
