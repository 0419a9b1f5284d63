"""Span recorder and layer wrappers for the traced benchmark run.

Only ``run.py --trace 1`` imports this module.  :func:`install` replaces
each layer's entry point *at the module attribute its caller looks up*
(``repro.core.kuhn_wattenhofer.round_fractional_solution``,
``repro.service.scheduler.solve``, ...) with a wrapper that records one
span per call; :meth:`Installation.restore` puts the originals back.  No
file under ``src/`` changes.

A span is ``(name, start, end, parent, request id, thread, attrs)``.  Spans
nest per thread through a thread-local stack, so the service's executor
threads each keep their own tree; a root span opened by the service
wrappers carries the request id of the request it executes.  Spans stay in
memory and :meth:`SpanRecorder.dump` writes them out once, at exit.

A layer's self time is its span's duration minus the part covered by its
direct children (children nest strictly inside their parent on one
thread, so that part is the sum of their durations).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Span name -> layer it is attributed to in the per-layer breakdown.
LAYER_OF = {
    "op": "bench",
    "graphs.build": "graphs",
    "api.solve": "api",
    "core.pipeline": "pipeline",
    "sharded.start": "sharded",
    "sharded.close": "sharded",
    "fractional": "fractional",
    "rounding": "rounding",
    "validate": "validate",
    "lp.solve": "lp",
    "lp.verify": "lp",
    "faults.materialize": "faults",
    "repair": "repair",
    "service.key": "service",
    "service.exec": "service",
    "service.coalesced": "service",
}

#: Layers in reporting order (the ``share.*`` per-layer metrics).
LAYERS = (
    "graphs",
    "api",
    "pipeline",
    "sharded",
    "fractional",
    "rounding",
    "validate",
    "lp",
    "faults",
    "repair",
    "service",
    "bench",
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request_id: Any = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request_id: Any = None, **attrs: Any) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent.request_id
        span = Span(
            span_id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=parent.span_id if parent is not None else None,
            request_id=request_id,
            thread=threading.get_ident(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].children_s += span.duration
        with self._lock:
            self.spans.append(span)

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request_id": span.request_id,
                            "thread": span.thread,
                            "attrs": span.attrs,
                        },
                        default=repr,
                    )
                    + "\n"
                )


def _wrap(
    recorder: SpanRecorder,
    function: Callable,
    name: str,
    before: Callable | None = None,
    after: Callable | None = None,
) -> Callable:
    """A span-recording wrapper around ``function``.

    ``before(args, kwargs)`` returns ``(request_id, attrs)`` for the span;
    ``after(result, span)`` may add attributes from the result.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        request_id, attrs = before(args, kwargs) if before else (None, {})
        span = recorder.open(name, request_id, **attrs)
        try:
            result = function(*args, **kwargs)
        except BaseException as error:
            span.attrs["error"] = type(error).__name__
            raise
        finally:
            recorder.close(span)
        if after is not None:
            after(result, span)
        return result

    return wrapper


# -- result annotations (counts recorded at the layer boundary) ----------- #


def _after_solve(report, span: Span) -> None:
    span.attrs["backend"] = report.backend


def _after_graph(graph, span: Span) -> None:
    edges = graph.number_of_edges
    span.attrs["edges"] = int(edges() if callable(edges) else edges)


def _after_fractional(result, span: Span) -> None:
    results = result.values() if isinstance(result, dict) else (result,)
    # A multi-k snapshot run executes once up to its largest k.
    span.attrs["rounds"] = max(r.rounds for r in results)
    span.attrs["messages"] = max(r.metrics.total_messages for r in results)


def _after_rounding(result, span: Span) -> None:
    span.attrs["size"] = len(result.dominating_set)
    span.attrs["fallback"] = len(result.joined_as_fallback)


def _after_lp(solution, span: Span) -> None:
    certificate = solution.certificate
    if certificate is not None:
        span.attrs["iterations"] = certificate.iterations
        span.attrs["gap"] = certificate.gap


def _after_repair(report, span: Span) -> None:
    span.attrs["patched"] = len(report.patched_nodes)


def _after_coalesced(reports, span: Span) -> None:
    span.attrs["backends"] = [report.backend for report in reports]


def _before_exec(args, kwargs):
    request = args[0]
    return request.request_id, {
        "wait_s": time.perf_counter() - request.submitted_at,
        "keys": [request.key],
    }


def _before_coalesced(args, kwargs):
    group = args[0]
    now = time.perf_counter()
    return group[0].request_id, {
        "wait_s": [now - request.submitted_at for request in group],
        "keys": [request.key for request in group],
    }


class Installation:
    """The set of patched attributes; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every layer entry point the benchmark's workloads pass through."""
    import repro.api as api
    import repro.core.kuhn_wattenhofer as pipeline
    import repro.graphs.bulk as bulk
    import repro.graphs.generators as generators
    import repro.lp.duality as duality
    import repro.lp.solver as lp_solver
    import repro.service.scheduler as scheduler
    import repro.service.server as server
    import repro.simulator.fault_schedule as fault_schedule
    import repro.simulator.sharded as sharded

    installation = Installation()

    def patch(owner, attr, name, before=None, after=None):
        installation.patch(
            owner, attr, _wrap(recorder, getattr(owner, attr), name, before, after)
        )

    patch(bulk, "bulk_erdos_renyi_graph", "graphs.build", after=_after_graph)
    patch(generators, "erdos_renyi_graph", "graphs.build", after=_after_graph)

    patch(api, "solve", "api.solve", after=_after_solve)
    patch(scheduler, "solve", "api.solve", after=_after_solve)
    patch(api, "kuhn_wattenhofer_dominating_set", "core.pipeline")

    patch(sharded.ShardedDriver, "__init__", "sharded.start")
    patch(sharded.ShardedDriver, "close", "sharded.close")

    for owner, attrs in (
        (pipeline, ("approximate_fractional_mds", "approximate_fractional_mds_unknown_delta")),
        (scheduler, ("approximate_fractional_mds_multi_k", "approximate_fractional_mds_unknown_delta_multi_k")),
    ):
        for attr in attrs:
            patch(owner, attr, "fractional", after=_after_fractional)
    for owner in (pipeline, scheduler):
        patch(owner, "round_fractional_solution", "rounding", after=_after_rounding)
        patch(owner, "solution_feasibility", "validate")
        patch(owner, "is_dominating_set", "validate")

    patch(lp_solver, "solve_fractional_mds_sparse", "lp.solve", after=_after_lp)
    patch(duality, "certified_lower_bound", "lp.verify")

    patch(fault_schedule.FaultSpec, "materialize", "faults.materialize")
    patch(pipeline, "repair_dominating_set", "repair", after=_after_repair)

    patch(server, "graph_fingerprint", "service.key")
    patch(server, "cache_key", "service.key")
    patch(scheduler, "_solve_request", "service.exec", before=_before_exec)
    patch(
        scheduler,
        "_coalesced_pipeline_reports",
        "service.coalesced",
        before=_before_coalesced,
        after=_after_coalesced,
    )
    return installation


def by_name(spans: list[Span], name: str) -> list[Span]:
    return [span for span in spans if span.name == name]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _percentile(values, q: float) -> float:
    from workloads import percentile

    return percentile(values, q) if len(values) else 0.0


def layer_metrics(
    phase_spans: list[Span], setup_spans: list[Span], ops: int
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics every workload reports.

    ``phase_spans`` are the spans of the timed, traced phase and ``ops``
    the number of ops (closed loop) or requests (service) it served:
    layer times are mean self seconds per op, so along a single-threaded
    op they add up to the op's wall time.  ``share.<layer>`` is a layer's
    fraction of all self time in the phase.  Graph construction also
    counts builds made during setup, where the workloads that keep their
    instances fixed pay for it.
    """
    ops = max(ops, 1)
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in phase_spans:
        totals[LAYER_OF[span.name]] += span.self_s
    grand_total = sum(totals.values()) or 1.0

    def per_op(name: str) -> float:
        return sum(span.self_s for span in by_name(phase_spans, name)) / ops

    builds = by_name(setup_spans, "graphs.build") + by_name(phase_spans, "graphs.build")
    backends = {"simulated": 0, "vectorized": 0, "sharded": 0}
    for span in by_name(phase_spans, "api.solve"):
        backends[span.attrs["backend"]] += 1
    for span in by_name(phase_spans, "service.coalesced"):
        for backend in span.attrs.get("backends", ()):
            backends[backend] += 1
    fractional = by_name(phase_spans, "fractional")
    rounding = by_name(phase_spans, "rounding")
    lp_solves = by_name(phase_spans, "lp.solve")
    ds_total = sum(span.attrs.get("size", 0) for span in rounding)

    metrics = {
        "graphs.build_s": (_mean(span.duration for span in builds), "s"),
        "graphs.edges": (_mean(span.attrs["edges"] for span in builds), "count"),
        "api.overhead_s": (
            _mean(span.self_s for span in by_name(phase_spans, "api.solve")),
            "s",
        ),
        "sharded.driver_s": (totals["sharded"] / ops, "s"),
        "fractional.s": (totals["fractional"] / ops, "s"),
        "fractional.rounds": (_mean(s.attrs["rounds"] for s in fractional), "count"),
        "fractional.messages": (
            _mean(s.attrs["messages"] for s in fractional),
            "count",
        ),
        "rounding.s": (totals["rounding"] / ops, "s"),
        "rounding.fallback_frac": (
            sum(s.attrs.get("fallback", 0) for s in rounding) / ds_total
            if ds_total
            else 0.0,
            "fraction",
        ),
        "validate.s": (totals["validate"] / ops, "s"),
        "lp.solve_s": (per_op("lp.solve"), "s"),
        "lp.verify_s": (per_op("lp.verify"), "s"),
        "lp.iterations": (_mean(s.attrs.get("iterations", 0) for s in lp_solves), "count"),
        "lp.certified_gap": (_mean(s.attrs.get("gap", 0.0) for s in lp_solves), "ratio"),
        "faults.materialize_s": (totals["faults"] / ops, "s"),
        "repair.s": (totals["repair"] / ops, "s"),
        "repair.patched_nodes": (
            sum(s.attrs.get("patched", 0) for s in by_name(phase_spans, "repair")),
            "count",
        ),
        "trace.attributed_frac": (1.0 - totals["bench"] / grand_total, "fraction"),
    }
    for backend, count in backends.items():
        metrics[f"api.backend.{backend}"] = (count, "count")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (totals[layer] / grand_total, "fraction")
    return metrics


def service_metrics(service) -> dict[str, tuple[float, str]]:
    """The service-layer and load-generator metrics (zero off the service).

    ``service`` is ``None`` for workloads that never enter
    :mod:`repro.service`, else a mapping with the traced phase's spans
    (``spans``), ``requests``, the service ``stats()`` snapshot, the
    phase wall time ``wall_s``, the executor ``workers`` count, the
    generator lags ``lags_s`` and the parity pass's direct solve times
    by cache key ``direct_s``.
    """
    if service is None:
        return {name: (0.0, unit) for name, unit in SERVICE_METRICS.items()}
    phase_spans = service["spans"]
    requests = max(service["requests"], 1)
    stats = service["stats"]
    solos = by_name(phase_spans, "service.exec")
    groups = by_name(phase_spans, "service.coalesced")
    waits = [span.attrs["wait_s"] for span in solos]
    for span in groups:
        waits.extend(span.attrs["wait_s"])
    executions = [span.duration for span in solos + groups]
    direct = service["direct_s"]
    grouped_direct = sum(
        direct[key] for span in groups for key in span.attrs["keys"] if key in direct
    )
    grouped_span = sum(span.duration for span in groups)
    values = {
        "service.key_ms": 1e3
        * sum(span.duration for span in by_name(phase_spans, "service.key"))
        / requests,
        "service.cache_hit_rate": stats["cache"]["hit_rate"],
        "service.inflight_joins": stats["inflight_joins"],
        "service.coalescing_factor": stats["scheduler"]["coalescing_factor"],
        "service.engine_executions": stats["scheduler"]["engine_executions"],
        "service.queue_wait_ms_p50": 1e3 * _percentile(waits, 50),
        "service.queue_wait_ms_p90": 1e3 * _percentile(waits, 90),
        "service.exec_ms_p50": 1e3 * _percentile(executions, 50),
        "service.exec_ms_p90": 1e3 * _percentile(executions, 90),
        "service.executor_busy_frac": sum(executions)
        / (service["workers"] * service["wall_s"]),
        "service.coalesced_speedup": grouped_direct / grouped_span
        if grouped_span
        else 0.0,
        "loadgen.lag_ms_p90": 1e3 * _percentile(service["lags_s"], 90),
    }
    return {name: (values[name], unit) for name, unit in SERVICE_METRICS.items()}


SERVICE_METRICS = {
    "service.key_ms": "ms",
    "service.cache_hit_rate": "fraction",
    "service.inflight_joins": "count",
    "service.coalescing_factor": "ratio",
    "service.engine_executions": "count",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p90": "ms",
    "service.exec_ms_p50": "ms",
    "service.exec_ms_p90": "ms",
    "service.executor_busy_frac": "fraction",
    "service.coalesced_speedup": "ratio",
    "loadgen.lag_ms_p90": "ms",
}
