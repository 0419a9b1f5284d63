"""Unified algorithm registry and the ``solve()`` façade.

Every dominating set algorithm in the library -- the Kuhn–Wattenhofer
pipeline, its weighted variant, and the whole comparison stack of
baselines -- is registered here as an :class:`AlgorithmSpec` carrying
capability metadata: which execution backends it supports, whether it
consumes CSR :class:`~repro.simulator.bulk.BulkGraph` inputs natively,
whether it understands node weights, produces a *connected* dominating
set, records execution traces, or sweeps many k values from one engine
invocation.

On top of the registry sits one uniform entry point::

    from repro.api import solve

    report = solve("kuhn-wattenhofer", graph, k=2, seed=0)
    report.dominating_set, report.size, report.backend, report.elapsed_s

``solve`` accepts ``backend="auto"`` (the default) and resolves the
execution backend from the spec's capabilities alone, never from the
input size:

* the vectorized bulk engine runs wherever the algorithm has it, on
  networkx and CSR :class:`BulkGraph` inputs alike; the simulated engine
  runs on request (``backend="simulated"``) or for algorithms that have
  no other engine;
* ``collect_trace=True`` restricts dispatch to the backends named in the
  spec's ``trace_backends`` -- the simulated engine records event-based
  :class:`~repro.simulator.trace.ExecutionTrace` objects, the vectorized
  engine columnar :class:`~repro.simulator.columnar.ColumnarTrace`
  snapshots;
* every impossible combination raises the single, well-worded
  :class:`~repro.core.vectorized.CapabilityError` instead of a scattered
  per-module ``ValueError``.

All runs are normalised into one :class:`RunReport` schema (set,
objective, backend used, rounds/messages/bits, wall-clock) regardless of
which heterogeneous result object the underlying entry point returns;
the underlying object stays available as ``report.raw``.

The CLI (``repro.cli``), the experiment sweeps
(``repro.analysis.experiment``) and the benchmark harness all enumerate
this registry, so registering a new algorithm here -- one
:func:`register` call -- makes it reachable from ``repro-domset solve
--algorithm ...``, ``repro-domset compare``, ``compare_algorithms`` and
the simulated/bulk twin equivalence gate automatically.

The classic public entry points (``kuhn_wattenhofer_dominating_set``,
``lrg_dominating_set``, ...) keep their exact signatures and behavior;
they are what the registry specs delegate to, and
``tests/test_api.py`` pins that ``solve`` reproduces them bitwise.
"""

from __future__ import annotations

import enum
import inspect
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable, Hashable, Iterator, Mapping, Sequence

import networkx as nx

from repro.baselines.bulk_greedy import greedy_dominating_set_bulk
from repro.baselines.bulk_set_cover import greedy_set_cover_dominating_set_bulk
from repro.baselines.greedy import greedy_dominating_set
from repro.baselines.greedy_set_cover import greedy_set_cover_dominating_set
from repro.baselines.jia_rajaraman_suel import lrg_dominating_set
from repro.baselines.lp_rounding_central import central_lp_rounding_dominating_set
from repro.baselines.trivial import (
    all_nodes_dominating_set,
    maximal_independent_set_dominating_set,
    random_dominating_set,
)
from repro.baselines.wu_li import wu_li_dominating_set
from repro.cds.connectify import kw_connected_dominating_set
from repro.cds.guha_khuller import guha_khuller_connected_dominating_set
from repro.core.kuhn_wattenhofer import (
    FractionalVariant,
    kuhn_wattenhofer_dominating_set,
)
from repro.core.rounding import RoundingRule
from repro.core.vectorized import (
    BACKENDS,
    SHARDED,
    SIMULATED,
    VECTORIZED,
    CapabilityError,
    resolve_bulk_input,
)
from repro.core.weighted import weighted_kuhn_wattenhofer_dominating_set
from repro.simulator.bulk import BulkGraph

#: The dispatch pseudo-backend: resolve per capabilities and input.
AUTO = "auto"

#: Every value accepted by ``solve(backend=...)``.
DISPATCH_BACKENDS = (AUTO,) + BACKENDS


# ---------------------------------------------------------------------- #
# RunReport: the one normalised result schema                             #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunReport:
    """Normalised result of one :func:`solve` call.

    Attributes
    ----------
    algorithm:
        Registry name of the algorithm that ran.
    backend:
        The *resolved* backend that executed (never ``"auto"``).
    dominating_set:
        The produced (connected, for CDS algorithms) dominating set.
    objective:
        What the algorithm minimises: ``|DS|`` for unweighted algorithms,
        the weighted cost for weighted ones.
    rounds:
        Distributed rounds used, or ``None`` for centralized algorithms.
    messages:
        Total messages sent (modeled, on the vectorized backend), or
        ``None`` when not accounted.
    max_message_bits:
        Largest message payload observed, or ``None``.
    params:
        The algorithm parameters the run was called with.
    seed:
        The seed the run was called with.
    elapsed_s:
        Wall-clock of the underlying entry point call.
    raw:
        The underlying entry point's own result object (``PipelineResult``,
        ``LRGResult``, a bare frozenset, ...) for callers that need
        algorithm-specific fields.
    """

    algorithm: str
    backend: str
    dominating_set: frozenset
    objective: float
    rounds: int | None
    messages: int | None
    max_message_bits: int | None
    params: dict[str, Any]
    seed: int | None
    elapsed_s: float
    raw: Any

    # -- back-compat accessors mirroring PipelineResult & friends -------- #

    @property
    def size(self) -> int:
        """|DS| of the produced dominating set."""
        return len(self.dominating_set)

    @property
    def repair(self):
        """The :class:`~repro.domset.repair.RepairReport` of a faulted run.

        ``None`` for fault-free runs and for runs called with
        ``repair=False`` (whose :attr:`dominating_set` is then the raw,
        possibly infeasible, degraded output).
        """
        return getattr(self.raw, "repair", None)

    @property
    def fault_summaries(self) -> dict[str, Any]:
        """Per-phase fault summaries of a faulted run (empty otherwise).

        Keys are phase names (``"fractional"``, ``"rounding"``), values
        the :class:`~repro.simulator.fault_schedule.FaultSummary`
        recorded by that phase.
        """
        summaries: dict[str, Any] = {}
        for phase in ("fractional", "rounding"):
            summary = getattr(getattr(self.raw, phase, None), "faults", None)
            if summary is not None:
                summaries[phase] = summary
        return summaries

    @property
    def total_rounds(self) -> int | None:
        """Alias for :attr:`rounds` (PipelineResult spelling)."""
        return self.rounds

    @property
    def total_messages(self) -> int | None:
        """Alias for :attr:`messages` (PipelineResult spelling)."""
        return self.messages

    def as_row(self) -> dict[str, Any]:
        """Flatten into one dictionary suitable for table rendering."""
        row: dict[str, Any] = {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "size": self.size,
            "objective": self.objective,
            "rounds": self.rounds,
            "messages": self.messages,
            "max_message_bits": self.max_message_bits,
            "elapsed_s": self.elapsed_s,
        }
        row.update(self.params)
        return row


#: The payload a spec runner returns; ``solve`` adds timing/params and
#: wraps it into a :class:`RunReport`.
_RunPayload = dict


# ---------------------------------------------------------------------- #
# AlgorithmSpec and the registry                                          #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm with its capability metadata.

    Attributes
    ----------
    name:
        Registry key (kebab-case; also the CLI ``--algorithm`` value).
    summary:
        One-line description shown in CLI help and docs.
    backends:
        Execution backends the algorithm supports (subset of
        :data:`~repro.core.vectorized.BACKENDS`).
    runner:
        ``(graph, *, seed, backend, **params) -> dict`` adapter producing
        the :class:`RunReport` payload.  ``backend`` is always concrete
        (already resolved).
    entry_point:
        The canonical public function the runner delegates to (kept for
        documentation and the back-compat tests).
    accepts_bulk:
        Consumes a CSR :class:`BulkGraph` natively -- no
        ``BulkGraph.from_graph`` conversion, no networkx materialisation.
    weighted:
        Understands a ``weights=`` mapping (defaults to unit costs).
    produces_cds:
        The output is a *connected* dominating set; requires a connected
        input graph.
    trace_backends:
        Backends on which ``collect_trace=True`` is available (a subset of
        :attr:`backends`).  The simulated engine records event-based
        ``ExecutionTrace`` objects, the vectorized engine columnar
        ``ColumnarTrace`` snapshots; empty means tracing is unsupported.
    supports_faults:
        Accepts a ``faults=`` :class:`~repro.simulator.fault_schedule.FaultSpec`
        (message loss + crash-stop injection from one materialized mask
        schedule, identical across every backend) and a ``repair=`` flag
        controlling the self-healing patch phase.
    supports_multi_k:
        A whole k sweep can run from one engine invocation
        (the ``*_multi_k`` snapshot entry points).
    deterministic:
        Output does not depend on ``seed`` -- sweeps and benchmarks may
        skip redundant trials.
    requires_connected:
        Only defined on connected graphs.
    in_comparison:
        Enumerated by default in registry-driven comparisons
        (``repro-domset compare`` / ``compare_algorithms``).
    in_bulk_comparison:
        Also enumerated when the comparison instances are CSR
        ``BulkGraph`` objects (centralized references whose cost explodes
        at that scale opt out).
    cli_params:
        Which of the CLI's generic algorithm options (``k``,
        ``variant``) this algorithm's runner accepts; the ``solve``
        sub-command forwards them from the declaration alone, so no
        per-algorithm wiring lives in :mod:`repro.cli`.
    """

    name: str
    summary: str
    backends: tuple[str, ...]
    runner: Callable[..., _RunPayload]
    entry_point: Callable
    accepts_bulk: bool = False
    weighted: bool = False
    produces_cds: bool = False
    trace_backends: tuple[str, ...] = ()
    supports_faults: bool = False
    supports_multi_k: bool = False
    deterministic: bool = False
    requires_connected: bool = False
    in_comparison: bool = True
    in_bulk_comparison: bool = True
    cli_params: tuple[str, ...] = ()

    def supports_backend(self, backend: str) -> bool:
        """Whether ``backend`` (a concrete backend) is supported."""
        return backend in self.backends

    @property
    def supports_trace(self) -> bool:
        """Whether ``collect_trace=True`` is available on any backend."""
        return bool(self.trace_backends)

    def supports_trace_on(self, backend: str) -> bool:
        """Whether ``collect_trace=True`` is available on ``backend``."""
        return backend in self.trace_backends

    @cached_property
    def _accepted_params(self) -> dict[str, Any]:
        """The runner's algorithm parameters and their defaults (read once)."""
        return {
            name: parameter.default
            for name, parameter in inspect.signature(self.runner).parameters.items()
            if name not in _RUNNER_CONTEXT
            and parameter.kind
            in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        }

    @property
    def has_backend_twins(self) -> bool:
        """Both engines implement the algorithm (equivalence-gateable)."""
        return SIMULATED in self.backends and VECTORIZED in self.backends


#: The global registry, in registration (= display) order.
_REGISTRY: dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add one :class:`AlgorithmSpec` to the registry.

    Raises
    ------
    ValueError
        On duplicate names, unknown backends, or capability combinations
        that cannot work (bulk-native without vectorized support, traces
        without the simulated engine).
    """
    if spec.name in _REGISTRY:
        raise ValueError(f"algorithm {spec.name!r} is already registered")
    if not spec.backends:
        raise ValueError(f"algorithm {spec.name!r} declares no backends")
    for backend in spec.backends:
        if backend not in BACKENDS:
            raise ValueError(
                f"algorithm {spec.name!r} declares unknown backend "
                f"{backend!r}; expected a subset of {', '.join(BACKENDS)}"
            )
    if spec.accepts_bulk and VECTORIZED not in spec.backends:
        raise ValueError(
            f"algorithm {spec.name!r} claims BulkGraph support without the "
            "vectorized backend"
        )
    if SHARDED in spec.backends and (
        VECTORIZED not in spec.backends or not spec.accepts_bulk
    ):
        # The sharded engine partitions a CSR and runs the vectorized
        # kernels on the slabs; without both it cannot execute at all.
        raise ValueError(
            f"algorithm {spec.name!r} claims the sharded backend without "
            "the vectorized backend and native BulkGraph support"
        )
    for backend in spec.trace_backends:
        if backend not in spec.backends:
            raise ValueError(
                f"algorithm {spec.name!r} claims trace support on backend "
                f"{backend!r} it does not execute on; trace_backends must "
                "be a subset of backends"
            )
    if spec.in_bulk_comparison and VECTORIZED not in spec.backends:
        raise ValueError(
            f"algorithm {spec.name!r} opts into bulk comparisons without "
            "the vectorized backend"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_spec(algorithm: str | AlgorithmSpec) -> AlgorithmSpec:
    """Look an algorithm up by registry name (specs pass through)."""
    if isinstance(algorithm, AlgorithmSpec):
        return algorithm
    try:
        return _REGISTRY[algorithm]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; registered algorithms: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def algorithm_names() -> tuple[str, ...]:
    """Every registered algorithm name, in registration order."""
    return tuple(_REGISTRY)


def iter_specs(
    backend: str | None = None,
    comparison: bool | None = None,
    bulk_comparison: bool | None = None,
    produces_cds: bool | None = None,
    weighted: bool | None = None,
) -> Iterator[AlgorithmSpec]:
    """Iterate registered specs, optionally filtered by capability.

    ``backend`` keeps specs supporting that concrete backend; the boolean
    filters match the homonymous spec fields (``None`` = don't filter).
    """
    for spec in _REGISTRY.values():
        if backend is not None and not spec.supports_backend(backend):
            continue
        if comparison is not None and spec.in_comparison != comparison:
            continue
        if bulk_comparison is not None and spec.in_bulk_comparison != bulk_comparison:
            continue
        if produces_cds is not None and spec.produces_cds != produces_cds:
            continue
        if weighted is not None and spec.weighted != weighted:
            continue
        yield spec


def twin_specs(exclude_cds: bool = True) -> list[AlgorithmSpec]:
    """Specs implemented by *both* engines -- the equivalence-gate pairs.

    Every algorithm returned here must produce identical dominating sets
    under ``backend="simulated"`` and ``backend="vectorized"`` for a given
    seed; ``benchmarks/bench_baseline_backends.py`` gates exactly this
    list, so a newly registered twin is covered automatically.  CDS
    algorithms are excluded by default (they require connected inputs, so
    they are gated on their own connected suites --
    ``benchmarks/bench_lp_speedup.py`` enumerates
    ``twin_specs(exclude_cds=False)`` and gates the CDS twins there).
    """
    return [
        spec
        for spec in _REGISTRY.values()
        if spec.has_backend_twins and not (exclude_cds and spec.produces_cds)
    ]


# ---------------------------------------------------------------------- #
# Parameter normalization                                                 #
# ---------------------------------------------------------------------- #

#: Runner-signature names that are not algorithm parameters: they are the
#: positional run context ``solve`` supplies itself.
_RUNNER_CONTEXT = ("graph", "seed", "backend")


def canonical_param_value(value: Any) -> Any:
    """Collapse semantically-equal parameter spellings onto one value.

    Enum members become their ``.value`` (so ``variant="unknown_delta"``
    and ``variant=FractionalVariant.UNKNOWN_DELTA`` compare equal),
    mappings become key-sorted dicts, and lists/tuples become tuples.
    Scalars and arbitrary objects (e.g. a ``FaultSpec``) pass through
    unchanged; :func:`repro.service.keys.canonical_token` handles turning
    those into hashable cache-key material.
    """
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Mapping):
        return {
            key: canonical_param_value(value[key])
            for key in sorted(value, key=repr)
        }
    if isinstance(value, (list, tuple)):
        return tuple(canonical_param_value(item) for item in value)
    return value


def normalized_params(
    algorithm: str | AlgorithmSpec,
    params: Mapping[str, Any] | None = None,
    strict: bool = True,
) -> dict[str, Any]:
    """The canonical, complete parameter dict of one ``solve`` request.

    Two semantically-equal requests -- different kwargs order, defaults
    left implicit vs. spelled out, enum members vs. their string values --
    normalize to *identical* dicts: every parameter the algorithm's runner
    accepts appears exactly once (explicit value or the runner's default),
    values are canonicalized via :func:`canonical_param_value`, and keys
    are sorted.  This is what :class:`RunReport.params` reports and what
    the service layer's content-addressed cache keys hash
    (:mod:`repro.service.keys`), so stable keys are a direct consequence
    of this function being deterministic.

    ``strict=True`` raises ``TypeError`` for parameters the runner does
    not accept (the cache must never silently ignore a request knob, and
    ``solve`` rejects them with this error before any work starts);
    ``strict=False`` drops them instead.
    """
    spec = get_spec(algorithm)
    params = dict(params or {})
    accepted = spec._accepted_params
    unknown = sorted(set(params) - set(accepted))
    if unknown and strict:
        raise TypeError(
            f"algorithm {spec.name!r} does not accept parameter(s) "
            + ", ".join(repr(name) for name in unknown)
            + (
                "; accepted: " + ", ".join(sorted(accepted))
                if accepted
                else "; it takes no parameters"
            )
        )
    normalized = {
        name: canonical_param_value(params.get(name, default))
        for name, default in accepted.items()
        if name in params or default is not inspect.Parameter.empty
    }
    return dict(sorted(normalized.items()))


# ---------------------------------------------------------------------- #
# Backend resolution                                                      #
# ---------------------------------------------------------------------- #


def _sharded_host_capable() -> bool:
    """Whether this host can run the sharded engine at all (POSIX fork)."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def resolve_backend(
    algorithm: str | AlgorithmSpec,
    graph: nx.Graph | BulkGraph,
    backend: str = AUTO,
    collect_trace: bool = False,
    shards: int | None = None,
) -> str:
    """Resolve ``backend="auto"`` (and validate concrete requests).

    Resolution rules, in order:

    1. ``collect_trace=True`` restricts dispatch to the spec's
       :attr:`~AlgorithmSpec.trace_backends` (event-based traces on the
       simulated engine, columnar traces on the vectorized engine; the
       sharded engine does not trace).
    2. An explicit ``shards=N`` requires a sharded-capable spec and pins
       the sharded engine under ``auto`` (with a concrete
       ``backend="simulated"``/``"vectorized"`` it is contradictory and
       raises).
    3. A CSR :class:`BulkGraph` input requires a bulk engine (vectorized
       or sharded -- there are no per-node programs to run it through).
    4. Otherwise ``auto`` picks from the candidates -- the trace backends
       when tracing, the spec's backends otherwise -- by capability alone:
       vectorized wherever the algorithm has it (it matches the simulated
       engine bit for bit, at any n); simulated on request or when it is
       the only engine.  It never picks the sharded engine: end to end it
       is slower than the vectorized one (KW pipeline, k = 2, ER n = 10⁶
       on a 2-CPU host: 5.5 s with 2 shards against 3.4 s), so it runs
       only when asked for (``backend="sharded"`` or ``shards=N``).

    Any impossible combination raises :class:`CapabilityError` naming the
    algorithm, the capability and the supporting backends.  The return
    value is always a concrete backend (never ``"auto"``).
    """
    spec = get_spec(algorithm)
    if backend not in DISPATCH_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            + ", ".join(DISPATCH_BACKENDS)
        )
    if collect_trace and not spec.trace_backends:
        raise CapabilityError(spec.name, "collect_trace", backend, ())
    if shards is not None:
        if not spec.supports_backend(SHARDED):
            raise CapabilityError(
                spec.name,
                f"sharded execution (shards={shards})",
                backend,
                spec.backends,
            )
        if backend in (SIMULATED, VECTORIZED):
            raise ValueError(
                f"shards={shards} requires backend='sharded' (or 'auto'); "
                f"got backend={backend!r}"
            )
        if collect_trace:
            raise CapabilityError(
                spec.name, "collect_trace", SHARDED, spec.trace_backends
            )

    is_bulk = isinstance(graph, BulkGraph)
    if is_bulk:
        if not (spec.supports_backend(VECTORIZED) and spec.accepts_bulk):
            # A vectorized engine alone is not enough: the spec must also
            # declare that its entry point consumes CSR inputs natively.
            raise CapabilityError(
                spec.name, "BulkGraph (CSR) inputs", backend, ()
            )
        if backend == SIMULATED:
            raise CapabilityError(
                spec.name,
                "BulkGraph (CSR) inputs",
                SIMULATED,
                tuple(b for b in spec.backends if b != SIMULATED),
            )
    if backend == AUTO:
        # Only an explicit shard count pins the sharded engine under auto
        # (the checks above already rejected unsupported specs and traces).
        if shards is not None and _sharded_host_capable():
            return SHARDED
        candidates = spec.trace_backends if collect_trace else spec.backends
        if VECTORIZED in candidates:
            return VECTORIZED
        if not is_bulk:
            return candidates[0]
        # CSR inputs pin the bulk engine, which this spec cannot trace.
        backend = VECTORIZED
    if not spec.supports_backend(backend):
        raise CapabilityError(spec.name, "execution", backend, spec.backends)
    if collect_trace and not spec.supports_trace_on(backend):
        raise CapabilityError(
            spec.name, "collect_trace", backend, spec.trace_backends
        )
    return backend


# ---------------------------------------------------------------------- #
# The solve façade                                                        #
# ---------------------------------------------------------------------- #


def _unit_weights(graph: nx.Graph | BulkGraph) -> dict[Hashable, float]:
    nodes = graph.nodes if isinstance(graph, BulkGraph) else graph.nodes()
    return {node: 1.0 for node in nodes}


def _is_connected(graph: nx.Graph | BulkGraph) -> bool:
    """Connectivity gate for ``requires_connected`` specs (cheap: O(n+m))."""
    if isinstance(graph, BulkGraph):
        from repro.cds.bulk import bulk_is_connected

        return bulk_is_connected(graph)
    return nx.is_connected(graph)


def solve(
    algorithm: str | AlgorithmSpec,
    graph: nx.Graph | BulkGraph,
    backend: str = AUTO,
    seed: int | None = None,
    **params: Any,
) -> RunReport:
    """Run one registered algorithm and return a normalised report.

    Parameters
    ----------
    algorithm:
        Registry name (see :func:`algorithm_names`) or a spec.
    graph:
        A networkx graph, or a CSR :class:`BulkGraph` for algorithms whose
        spec declares :attr:`~AlgorithmSpec.accepts_bulk`.
    backend:
        ``"auto"`` (default; resolved per :func:`resolve_backend`),
        ``"simulated"``, ``"vectorized"`` or ``"sharded"``.
    seed:
        Seed forwarded to the algorithm (ignored by deterministic ones).
    **params:
        Algorithm-specific parameters (``k=``, ``variant=``, ``weights=``,
        ``collect_trace=``, ``shards=``, ``faults=``, ``repair=``, ...);
        unknown ones raise a ``TypeError`` naming the algorithm and the
        parameters it accepts, before any work starts.
        ``shards=N`` pins the sharded engine under ``backend="auto"``;
        ``faults=`` requires a spec with
        :attr:`~AlgorithmSpec.supports_faults`.

    Returns
    -------
    RunReport

    Raises
    ------
    CapabilityError
        When the requested backend/capability combination is not supported
        by this algorithm.
    KeyError
        For unknown algorithm names.
    """
    spec = get_spec(algorithm)
    # Engine-managed extras leave ``params`` before the parameter check:
    # dispatch answers them (with a CapabilityError where the spec lacks
    # the engine), not the runner's signature.
    shards = params.pop("shards", None)
    collect_trace = bool(params.pop("collect_trace", False))
    if params.get("faults") is not None and not spec.supports_faults:
        raise CapabilityError(spec.name, "fault injection (faults=...)", backend, ())
    if not spec.supports_faults:
        # A falsy faults=/repair= passed generically by sweep code (a truthy
        # faults= was rejected above) must not reach runners without them.
        params.pop("faults", None)
        params.pop("repair", None)
    # The one parameter check, and the *normalized* dict RunReport reports
    # (defaults filled in, values canonicalized, keys sorted):
    # semantically-equal requests -- kwargs order, default-vs-explicit,
    # enum-vs-string -- yield identical params, which is what the service
    # layer's content-addressed cache keys hash.
    report_params = normalized_params(spec, params)
    report_params.pop("weights", None)
    resolved = resolve_backend(
        spec, graph, backend=backend, collect_trace=collect_trace, shards=shards
    )
    # resolve_backend rejected both extras for every spec without them.
    if collect_trace:
        params["collect_trace"] = report_params["collect_trace"] = True
    if resolved == SHARDED:
        params["shards"] = report_params["shards"] = shards
    if spec.requires_connected:
        # The gate follows the one input check, whose errors every spec
        # shares; a bulk engine then runs on the CSR the check built.
        graph = resolve_bulk_input(graph, resolved) or graph
    if spec.requires_connected and not _is_connected(graph):
        raise ValueError(
            f"algorithm {spec.name!r} requires a connected graph (a "
            "disconnected graph has no connected dominating set); restrict "
            "the input to its largest component first"
        )
    if spec.weighted and params.get("weights") is None:
        params["weights"] = _unit_weights(graph)
    start = time.perf_counter()
    payload = spec.runner(graph, seed=seed, backend=resolved, **params)
    elapsed = time.perf_counter() - start
    # Runners may report parameters they resolved themselves (e.g. the
    # pipeline's k = Θ(log Δ) default) so callers never have to introspect
    # algorithm-specific result shapes.
    report_params.update(
        (key, canonical_param_value(value))
        for key, value in payload.pop("resolved_params", {}).items()
    )
    return RunReport(
        algorithm=spec.name,
        backend=resolved,
        params=report_params,
        seed=seed,
        elapsed_s=elapsed,
        **payload,
    )


def run_algorithm(
    graph: nx.Graph | BulkGraph,
    seed: int | None,
    algorithm: str = "kuhn-wattenhofer",
    backend: str = AUTO,
    **params: Any,
) -> frozenset:
    """``(graph, seed) -> dominating set`` adapter over :func:`solve`.

    Module-level (not a closure) so :func:`functools.partial` bindings of
    it are picklable and can be shipped to ``jobs=N`` worker processes by
    :func:`repro.analysis.experiment.compare_algorithms`.
    """
    return solve(algorithm, graph, backend=backend, seed=seed, **params).dominating_set


def comparison_algorithms(
    bulk: bool = False,
    backend: str = AUTO,
    names: Sequence[str] | None = None,
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
) -> "dict[str, Callable[[nx.Graph | BulkGraph, int | None], frozenset]]":
    """Registry-driven ``name -> (graph, seed)`` comparison callables.

    Parameters
    ----------
    bulk:
        The comparison instances are CSR ``BulkGraph`` objects: keep only
        specs that support the vectorized engine and opt into bulk
        comparisons.
    backend:
        Backend forwarded to every callable (default ``"auto"``).
    names:
        Restrict to these registry names (any registered algorithm, even
        ones outside the default comparison set).  Explicitly requesting
        an algorithm that cannot run on bulk instances, or on the
        requested concrete backend, raises :class:`CapabilityError` up
        front.
    overrides:
        Per-algorithm parameter overrides, e.g. ``{"kuhn-wattenhofer":
        {"k": 3}}``.

    When the registry is enumerated (``names=None``), specs that cannot
    satisfy the request are *skipped* rather than raised on: a concrete
    ``backend="vectorized"`` keeps only vectorized-capable specs, exactly
    as ``bulk=True`` keeps only bulk-capable ones.

    All callables are picklable (partials of :func:`run_algorithm`).
    """
    if backend not in DISPATCH_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            + ", ".join(DISPATCH_BACKENDS)
        )
    explicit = names is not None
    if explicit:
        specs = [get_spec(name) for name in names]
    else:
        specs = [
            spec
            for spec in iter_specs(comparison=True)
            if not bulk or spec.in_bulk_comparison
        ]
    algorithms: dict[str, Callable] = {}
    for spec in specs:
        if bulk and not spec.supports_backend(VECTORIZED):
            if explicit:
                raise CapabilityError(spec.name, "BulkGraph (CSR) inputs", None, ())
            continue
        if backend != AUTO and not spec.supports_backend(backend):
            if explicit:
                raise CapabilityError(spec.name, "execution", backend, spec.backends)
            continue
        params = dict(overrides.get(spec.name, {})) if overrides else {}
        algorithms[spec.name] = partial(
            run_algorithm, algorithm=spec.name, backend=backend, **params
        )
    return algorithms


# ---------------------------------------------------------------------- #
# Spec runners (adapters from entry-point results to RunReport payloads)  #
# ---------------------------------------------------------------------- #


def _set_payload(dominating_set: frozenset, raw: Any = None) -> _RunPayload:
    """Payload for centralized algorithms returning a bare set."""
    return {
        "dominating_set": frozenset(dominating_set),
        "objective": float(len(dominating_set)),
        "rounds": None,
        "messages": None,
        "max_message_bits": None,
        "raw": raw if raw is not None else dominating_set,
    }


def _metrics_payload(dominating_set, rounds, metrics, raw) -> _RunPayload:
    """Payload for distributed algorithms reporting ExecutionMetrics."""
    return {
        "dominating_set": frozenset(dominating_set),
        "objective": float(len(dominating_set)),
        "rounds": int(rounds),
        "messages": int(metrics.total_messages),
        "max_message_bits": int(metrics.max_message_bits),
        "raw": raw,
    }


def _run_kuhn_wattenhofer(
    graph,
    seed,
    backend,
    k: int | None = None,
    variant: FractionalVariant = FractionalVariant.UNKNOWN_DELTA,
    rounding_rule: RoundingRule = RoundingRule.LOG,
    collect_trace: bool = False,
    shards: int | None = None,
    faults=None,
    repair: bool = True,
) -> _RunPayload:
    result = kuhn_wattenhofer_dominating_set(
        graph,
        k=k,
        seed=seed,
        variant=FractionalVariant(variant),
        rounding_rule=rounding_rule,
        collect_trace=collect_trace,
        backend=backend,
        shards=shards,
        faults=faults,
        repair=repair,
    )
    return {
        "dominating_set": result.dominating_set,
        "objective": float(result.size),
        "rounds": result.total_rounds,
        "messages": result.total_messages,
        "max_message_bits": result.max_message_bits,
        "resolved_params": {"k": result.k},
        "raw": result,
    }


def _run_weighted_kuhn_wattenhofer(
    graph,
    seed,
    backend,
    weights=None,
    k: int = 2,
    rounding_rule: RoundingRule = RoundingRule.LOG,
    collect_trace: bool = False,
    shards: int | None = None,
) -> _RunPayload:
    result = weighted_kuhn_wattenhofer_dominating_set(
        graph,
        weights,
        k=k,
        seed=seed,
        rounding_rule=rounding_rule,
        collect_trace=collect_trace,
        backend=backend,
        shards=shards,
    )
    messages = (
        result.fractional.metrics.total_messages
        + result.rounding.metrics.total_messages
    )
    bits = max(
        result.fractional.metrics.max_message_bits,
        result.rounding.metrics.max_message_bits,
    )
    return {
        "dominating_set": result.dominating_set,
        "objective": float(result.cost),
        "rounds": result.total_rounds,
        "messages": int(messages),
        "max_message_bits": int(bits),
        "resolved_params": {"k": result.fractional.k},
        "raw": result,
    }


def _run_greedy(graph, seed, backend) -> _RunPayload:
    if backend == VECTORIZED:
        return _set_payload(greedy_dominating_set_bulk(graph))
    return _set_payload(greedy_dominating_set(graph))


def _run_set_cover_greedy(graph, seed, backend) -> _RunPayload:
    if backend == VECTORIZED:
        return _set_payload(greedy_set_cover_dominating_set_bulk(graph))
    return _set_payload(greedy_set_cover_dominating_set(graph))


def _run_lrg(graph, seed, backend, max_phases: int | None = None) -> _RunPayload:
    result = lrg_dominating_set(
        graph, seed=seed, max_phases=max_phases, backend=backend
    )
    return _metrics_payload(result.dominating_set, result.rounds, result.metrics, result)


def _run_wu_li(
    graph,
    seed,
    backend,
    apply_pruning: bool = True,
    ensure_domination: bool = True,
) -> _RunPayload:
    result = wu_li_dominating_set(
        graph,
        apply_pruning=apply_pruning,
        ensure_domination=ensure_domination,
        seed=seed,
        backend=backend,
    )
    return _metrics_payload(result.dominating_set, result.rounds, result.metrics, result)


def _run_central_lp(
    graph,
    seed,
    backend,
    rule: RoundingRule = RoundingRule.LOG,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> _RunPayload:
    result = central_lp_rounding_dominating_set(
        graph,
        seed=seed,
        rule=rule,
        backend=backend,
        lp_method=lp_method,
        lp_tol=lp_tol,
    )
    # Only the distributed rounding phase has a round count; the LP solve
    # is centralized by construction.
    return _metrics_payload(
        result.dominating_set,
        result.rounding.rounds,
        result.rounding.metrics,
        result,
    )


def _run_mis(graph, seed, backend) -> _RunPayload:
    return _set_payload(maximal_independent_set_dominating_set(graph, seed=seed))


def _run_random_fill(graph, seed, backend) -> _RunPayload:
    return _set_payload(random_dominating_set(graph, seed=seed))


def _run_all_nodes(graph, seed, backend) -> _RunPayload:
    return _set_payload(all_nodes_dominating_set(graph))


def _run_kw_connect(graph, seed, backend, k: int | None = None) -> _RunPayload:
    cds, pipeline = kw_connected_dominating_set(graph, k=k, seed=seed, backend=backend)
    return {
        "dominating_set": cds,
        "objective": float(len(cds)),
        "rounds": pipeline.total_rounds,
        "messages": pipeline.total_messages,
        "max_message_bits": pipeline.max_message_bits,
        "resolved_params": {"k": pipeline.k},
        "raw": (cds, pipeline),
    }


def _run_guha_khuller(graph, seed, backend) -> _RunPayload:
    return _set_payload(
        guha_khuller_connected_dominating_set(graph, backend=backend)
    )


# ---------------------------------------------------------------------- #
# Registrations                                                           #
# ---------------------------------------------------------------------- #


register(
    AlgorithmSpec(
        name="kuhn-wattenhofer",
        summary="The paper's Theorem-6 pipeline: distributed fractional "
        "LP_MDS approximation (Alg. 2/3) + randomized rounding (Alg. 1)",
        backends=(SIMULATED, VECTORIZED, SHARDED),
        runner=_run_kuhn_wattenhofer,
        entry_point=kuhn_wattenhofer_dominating_set,
        accepts_bulk=True,
        trace_backends=(SIMULATED, VECTORIZED),
        supports_faults=True,
        supports_multi_k=True,
        cli_params=("k", "variant"),
    )
)

register(
    AlgorithmSpec(
        name="greedy",
        summary="Centralized greedy (ln Δ reference; bucket-queue CSR twin)",
        backends=(SIMULATED, VECTORIZED),
        runner=_run_greedy,
        entry_point=greedy_dominating_set,
        accepts_bulk=True,
        deterministic=True,
    )
)

register(
    AlgorithmSpec(
        name="set-cover-greedy",
        summary="Greedy set cover on closed neighborhoods (CSR twin)",
        backends=(SIMULATED, VECTORIZED),
        runner=_run_set_cover_greedy,
        entry_point=greedy_set_cover_dominating_set,
        accepts_bulk=True,
        deterministic=True,
    )
)

register(
    AlgorithmSpec(
        name="lrg",
        summary="Jia–Rajaraman–Suel LRG: O(log n log Δ) rounds, "
        "O(log Δ) expected ratio",
        backends=(SIMULATED, VECTORIZED),
        runner=_run_lrg,
        entry_point=lrg_dominating_set,
        accepts_bulk=True,
    )
)

register(
    AlgorithmSpec(
        name="wu-li",
        summary="Wu–Li marking with pruning rules 1-2 (backbone heuristic)",
        backends=(SIMULATED, VECTORIZED),
        runner=_run_wu_li,
        entry_point=wu_li_dominating_set,
        accepts_bulk=True,
        deterministic=True,
    )
)

register(
    AlgorithmSpec(
        name="central-lp",
        summary="Exact (centralized) LP_MDS solve + distributed rounding",
        backends=(SIMULATED, VECTORIZED),
        runner=_run_central_lp,
        entry_point=central_lp_rounding_dominating_set,
        accepts_bulk=True,
        # The exact LP reference is the very cost the CSR path avoids;
        # keep it out of bulk-scale comparison enumerations.
        in_bulk_comparison=False,
    )
)

register(
    AlgorithmSpec(
        name="mis",
        summary="Clustering-by-MIS heuristic (every MIS dominates)",
        backends=(SIMULATED,),
        runner=_run_mis,
        entry_point=maximal_independent_set_dominating_set,
        in_bulk_comparison=False,
    )
)

register(
    AlgorithmSpec(
        name="random-fill",
        summary="Random candidate set + greedy fill (trivial baseline)",
        backends=(SIMULATED,),
        runner=_run_random_fill,
        entry_point=random_dominating_set,
        in_bulk_comparison=False,
    )
)

register(
    AlgorithmSpec(
        name="all-nodes",
        summary="Every node (the trivial upper bound)",
        backends=(SIMULATED,),
        runner=_run_all_nodes,
        entry_point=all_nodes_dominating_set,
        deterministic=True,
        in_comparison=False,
        in_bulk_comparison=False,
    )
)

register(
    AlgorithmSpec(
        name="weighted-kuhn-wattenhofer",
        summary="Weighted pipeline (remark after Theorem 4): cost-scaled "
        "fractional phase + Algorithm 1 rounding",
        backends=(SIMULATED, VECTORIZED, SHARDED),
        runner=_run_weighted_kuhn_wattenhofer,
        entry_point=weighted_kuhn_wattenhofer_dominating_set,
        accepts_bulk=True,
        weighted=True,
        trace_backends=(SIMULATED, VECTORIZED),
        in_comparison=False,
        cli_params=("k",),
    )
)

register(
    AlgorithmSpec(
        name="kw-connect",
        summary="Kuhn–Wattenhofer pipeline + Voronoi/Kruskal connectification "
        "(connected dominating set)",
        backends=(SIMULATED, VECTORIZED),
        runner=_run_kw_connect,
        entry_point=kw_connected_dominating_set,
        accepts_bulk=True,
        produces_cds=True,
        requires_connected=True,
        in_comparison=False,
        in_bulk_comparison=False,
        cli_params=("k",),
    )
)

register(
    AlgorithmSpec(
        name="guha-khuller",
        summary="Guha–Khuller centralized connected dominating set greedy "
        "(bucket-queue CSR twin)",
        backends=(SIMULATED, VECTORIZED),
        runner=_run_guha_khuller,
        entry_point=guha_khuller_connected_dominating_set,
        accepts_bulk=True,
        produces_cds=True,
        deterministic=True,
        requires_connected=True,
        in_comparison=False,
        in_bulk_comparison=False,
    )
)
