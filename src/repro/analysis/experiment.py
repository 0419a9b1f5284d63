"""Experiment runner: parameter sweeps shared by benchmarks, CLI and examples.

The benchmarks all have the same shape -- run one or more algorithms over a
collection of graphs (and a range of k values, and several random trials),
collect per-run records, and aggregate them into the rows the paper's claims
correspond to.  This module centralises that machinery so every benchmark
file stays a thin declaration of *what* to measure.

The three Kuhn–Wattenhofer sweeps -- :func:`sweep_fractional`
(Theorems 4/5), :func:`sweep_pipeline` (Theorem 6) and
:func:`sweep_tradeoff` (the k-vs-quality curve against the KMW
lower-bound shape) -- share one per-instance runner: one CSR build, one
engine, one multi-k fractional execution, one batched rounding per k
under the trial seeds, and a dominating-set check on every rounded set.
Each sweep only declares the columns it records.  :func:`sweep_faults`,
:func:`sweep_cds` and :func:`compare_algorithms` run over
:func:`repro.api.solve`.

Two scaling features let sweeps run far past the networkx comfort zone:

* instances may wrap CSR :class:`~repro.simulator.bulk.BulkGraph` objects
  (e.g. from ``graph_suite("xlarge")``); those sweep with the vectorized
  backend and skip the centralized LP reference columns unless asked, and
* every sweep accepts ``jobs=N`` to parallelize across graph instances
  with a process pool -- instances are independent, so records are simply
  computed in worker processes and concatenated in instance order.

Backend selection is capability-based: every sweep accepts
``backend="auto"`` (the default) and resolves the execution engine per
instance through the :mod:`repro.api` registry -- CSR instances and large
graphs go to the vectorized engine, small graphs to the simulated one,
and impossible combinations raise the registry's single
:class:`~repro.core.vectorized.CapabilityError`.  The algorithm
comparison (:func:`compare_algorithms`) enumerates the registry by
default, so newly registered algorithms join every comparison (and the
CLI ``compare`` sub-command) without touching this module.  Every runner
validates its inputs (k values, ``trials``, ``jobs``) once, before any
LP solve or CSR build.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import networkx as nx

from repro.analysis.bounds import (
    algorithm2_approximation_bound,
    algorithm3_approximation_bound,
    kmw_lower_bound,
    pipeline_expected_ratio_bound,
    pipeline_round_bound,
)
from repro.analysis.stats import summarize
from repro.core.fractional import approximate_fractional_mds_multi_k
from repro.core.fractional_unknown import (
    approximate_fractional_mds_unknown_delta_multi_k,
)
from repro.core.kuhn_wattenhofer import FractionalVariant
from repro.core.rounding import round_fractional_solution_batched
from repro.core.vectorized import SHARDED, VECTORIZED, bulk_engine, validate_k
from repro.simulator.bulk import BulkGraph, available_cpu_count
from repro.domset.validation import is_dominating_set
from repro.graphs.utils import max_degree
from repro.lp.duality import lemma1_lower_bound
from repro.lp.solver import solve_fractional_mds


@dataclass(frozen=True)
class GraphInstance:
    """One named graph instance in a sweep.

    ``graph`` is either a networkx graph or a CSR
    :class:`~repro.simulator.bulk.BulkGraph` (the ``"xlarge"`` suite);
    bulk instances require the vectorized backend and report ``NaN`` for
    the centralized LP reference columns, which are not computed at that
    scale.
    """

    name: str
    graph: nx.Graph | BulkGraph

    @property
    def is_bulk(self) -> bool:
        return isinstance(self.graph, BulkGraph)

    @property
    def node_count(self) -> int:
        if self.is_bulk:
            return self.graph.n
        return self.graph.number_of_nodes()

    @property
    def max_degree(self) -> int:
        return max_degree(self.graph)


def as_instances(graphs: Mapping[str, nx.Graph]) -> list[GraphInstance]:
    """Wrap a name -> graph mapping into :class:`GraphInstance` objects."""
    return [GraphInstance(name=name, graph=graph) for name, graph in graphs.items()]


@dataclass
class ExperimentRecord:
    """One measurement row produced by a sweep."""

    instance: str
    algorithm: str
    parameters: dict[str, Any] = field(default_factory=dict)
    measurements: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> dict[str, Any]:
        """Flatten into a single dictionary suitable for table rendering."""
        row: dict[str, Any] = {"instance": self.instance, "algorithm": self.algorithm}
        row.update(self.parameters)
        row.update(self.measurements)
        return row


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, NaN when the denominator is not positive."""
    return numerator / denominator if denominator > 0 else float("nan")


def _checked_inputs(
    jobs: int, trials: int = 1, k_values: Sequence[int] = (1,)
) -> tuple[int, ...]:
    """Validate a runner's inputs once, before any LP solve or CSR build.

    Returns the k values as plain ints (see
    :func:`~repro.core.vectorized.validate_k`).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    k_values = tuple(validate_k(k) for k in k_values)
    if not k_values:
        raise ValueError("k_values must not be empty")
    return k_values


def _lp_reference(
    instance: GraphInstance,
    sparse_for_bulk: bool = False,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> float:
    """The centralized LP optimum reference for one instance.

    Every instance is solved through
    :func:`~repro.lp.solver.solve_fractional_mds` on the CSR formulation.
    CSR instances report NaN unless ``sparse_for_bulk`` is set: the exact
    solve takes tens of seconds at n = 20 000, so sweeps only opt in when
    the caller asks for the LP ratio column at that scale.
    ``lp_method="pdhg"`` swaps the exact solve for a certified
    first-order one (relative gap ≤ ``lp_tol``): the right trade on
    solver-bound instances, where HiGHS -- not the formulation -- is the
    bottleneck.
    """
    if instance.is_bulk and not sparse_for_bulk:
        return float("nan")
    return solve_fractional_mds(
        instance.graph, method=lp_method, tol=lp_tol
    ).objective


def _gather(
    instances: Sequence[GraphInstance],
    results: Sequence[Callable[[], list[ExperimentRecord]]],
) -> list[ExperimentRecord]:
    """Concatenate per-instance results, naming the instance that failed."""
    records: list[ExperimentRecord] = []
    for instance, result in zip(instances, results):
        try:
            records.extend(result())
        except Exception as error:
            error.args = (
                f"sweep worker failed on instance {instance.name!r}: "
                + ", ".join(str(arg) for arg in error.args),
            )
            raise
    return records


def _map_instances(
    worker: Callable[[GraphInstance], list[ExperimentRecord]],
    instances: Sequence[GraphInstance],
    jobs: int,
) -> list[ExperimentRecord]:
    """Run a per-instance worker, optionally on a process pool.

    Results are concatenated in instance order regardless of completion
    order, so ``jobs`` never changes the produced records -- only the
    wall-clock.  ``worker`` (and everything it closes over) must be
    picklable when ``jobs > 1``.

    The pool is never wider than the CPUs this process may actually use
    (:func:`~repro.simulator.bulk.available_cpu_count`, which honours
    CPU affinity), and a worker failure -- serial or pooled -- is
    re-raised with the failing instance's name attached: a sweep over
    fifty graphs should say *which* one died.
    """
    if jobs == 1 or len(instances) <= 1:
        return _gather(instances, [partial(worker, instance) for instance in instances])
    workers = max(1, min(jobs, len(instances), available_cpu_count()))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, instance) for instance in instances]
        return _gather(instances, [future.result for future in futures])


# ---------------------------------------------------------------------- #
# Kuhn–Wattenhofer sweeps: one runner, one column set per sweep           #
# ---------------------------------------------------------------------- #


class _Reference(NamedTuple):
    """Per-instance quantities every k of a KW sweep is measured against."""

    variant: FractionalVariant
    delta: int
    lp_optimum: float
    dual_lower_bound: float


def _kw_instance_records(
    instance: GraphInstance,
    columns: Callable[..., dict[str, float]],
    algorithm: str,
    k_values: Sequence[int],
    variant: FractionalVariant,
    seed: int,
    backend: str,
    shards: int | None,
    trials: int = 0,
    sparse_lp: bool = False,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> list[ExperimentRecord]:
    """All records of one instance for one KW sweep (one process-pool work unit).

    The fractional phase is deterministic (its seed is bookkeeping only),
    so the whole k sweep is *one* multi-k execution -- a single
    snapshot-engine invocation on the bulk backends, whose per-k results
    are bitwise equal to independent runs.  With ``trials > 0`` each k's
    solution is then rounded under the seeds ``seed .. seed + trials - 1``
    in one batch and every rounded set is checked to dominate; the records
    equal running the full pipeline once per (k, trial), without
    re-paying the seed-independent phases.  The CSR is built once per
    instance, and on the sharded backend one resident shard pool serves
    all of it.

    ``columns(reference, k, fractional, roundings)`` turns one k's results
    into the sweep's measurements.
    """
    from repro.api import resolve_backend

    backend = resolve_backend(
        "kuhn-wattenhofer", instance.graph, backend=backend, shards=shards
    )
    reference = _Reference(
        variant=variant,
        delta=instance.max_degree,
        lp_optimum=_lp_reference(instance, sparse_lp, lp_method, lp_tol),
        # The Lemma-1 bound is what the rounded sizes are compared with.
        dual_lower_bound=lemma1_lower_bound(instance.graph)
        if trials
        else float("nan"),
    )
    bulk = None
    if backend in (VECTORIZED, SHARDED) and not instance.is_bulk:
        bulk = BulkGraph.from_graph(instance.graph)
    if variant is FractionalVariant.KNOWN_DELTA:
        multi_k = approximate_fractional_mds_multi_k
    else:
        multi_k = approximate_fractional_mds_unknown_delta_multi_k
    seeds = [seed + trial for trial in range(trials)]
    engine_graph = instance.graph if bulk is None else bulk
    with bulk_engine(engine_graph, backend, shards) as executor:
        fractional_by_k = multi_k(
            instance.graph,
            k_values,
            seed=seed,
            backend=backend,
            _bulk=bulk,
            _executor=executor,
        )
        roundings_by_k = {
            k: round_fractional_solution_batched(
                instance.graph,
                fractional_by_k[k].x,
                seeds=seeds,
                require_feasible=True,  # the per-trial pipelines checked this
                backend=backend,
                _bulk=bulk,
                _executor=executor,
            )
            for k in (k_values if seeds else ())
        }
    records: list[ExperimentRecord] = []
    for k in k_values:
        roundings = roundings_by_k.get(k, [])
        for rounding in roundings:
            if not (
                is_dominating_set(instance.graph, rounding.dominating_set)
                if rounding.in_set is None
                else is_dominating_set(engine_graph, rounding.in_set)
            ):
                raise RuntimeError(
                    f"pipeline produced a non-dominating set on {instance.name}"
                )
        records.append(
            ExperimentRecord(
                instance=instance.name,
                algorithm=f"{algorithm}[{variant.value}]",
                parameters={"k": k, "n": instance.node_count, "delta": reference.delta},
                measurements=columns(reference, k, fractional_by_k[k], roundings),
            )
        )
    return records


def _fractional_columns(reference: _Reference, k, fractional, roundings):
    """Theorems 4/5: fractional objective against the LP and the bound."""
    if reference.variant is FractionalVariant.KNOWN_DELTA:
        bound = algorithm2_approximation_bound(k, reference.delta)
    else:
        bound = algorithm3_approximation_bound(k, reference.delta)
    return {
        "objective": fractional.objective,
        "lp_optimum": reference.lp_optimum,
        "ratio": _ratio(fractional.objective, reference.lp_optimum),
        "bound": bound,
        "rounds": fractional.rounds,
        "max_messages_per_node": fractional.metrics.max_messages_per_node,
        "max_message_bits": fractional.metrics.max_message_bits,
    }


def _pipeline_columns(reference: _Reference, k, fractional, roundings):
    """Theorem 6: mean rounded size against the LP and the expected bound."""
    sizes = summarize([float(len(rounding.dominating_set)) for rounding in roundings])
    rounds = [float(fractional.rounds + rounding.rounds) for rounding in roundings]
    return {
        "mean_size": sizes.mean,
        "std_size": sizes.std,
        "lp_optimum": reference.lp_optimum,
        "dual_lower_bound": reference.dual_lower_bound,
        "mean_ratio_vs_lp": _ratio(sizes.mean, reference.lp_optimum),
        "bound": pipeline_expected_ratio_bound(k, reference.delta),
        "mean_rounds": sum(rounds) / len(rounds),
        "trials": float(len(roundings)),
    }


def _tradeoff_columns(reference: _Reference, k, fractional, roundings):
    """Measured ratio between the Theorem-6 and KMW shapes, plus rounds."""
    sizes = summarize([float(len(rounding.dominating_set)) for rounding in roundings])
    return {
        "mean_size": sizes.mean,
        "lp_optimum": reference.lp_optimum,
        "dual_lower_bound": reference.dual_lower_bound,
        "mean_ratio_vs_lp": _ratio(sizes.mean, reference.lp_optimum),
        "mean_ratio_vs_dual": _ratio(sizes.mean, reference.dual_lower_bound),
        "upper_bound_thm6": pipeline_expected_ratio_bound(k, reference.delta),
        "lower_bound_shape_kmw": kmw_lower_bound(k, reference.delta),
        "rounds": float(fractional.rounds + roundings[0].rounds),
        "round_bound": float(pipeline_round_bound(k)),
        "trials": float(len(roundings)),
    }


def sweep_fractional(
    instances: Sequence[GraphInstance],
    k_values: Sequence[int],
    variant: FractionalVariant = FractionalVariant.KNOWN_DELTA,
    seed: int = 0,
    backend: str = "auto",
    jobs: int = 1,
    shards: int | None = None,
) -> list[ExperimentRecord]:
    """Run a fractional algorithm over instances × k and record quality.

    Every record contains the measured fractional objective, the LP optimum,
    the measured/optimal ratio, the theorem's bound for that (k, Δ), the
    number of rounds used and the per-node message maxima.  ``backend``
    selects the execution engine; all produce identical records (the bulk
    engines model their message counts).  ``jobs`` parallelizes across
    instances with a process pool (identical records, any order of
    execution); ``shards=N`` pins the sharded engine per instance (one
    resident shard pool serves an instance's whole k sweep).
    """
    worker = partial(
        _kw_instance_records,
        columns=_fractional_columns,
        algorithm="fractional",
        k_values=_checked_inputs(jobs, k_values=k_values),
        variant=variant,
        seed=seed,
        backend=backend,
        shards=shards,
    )
    return _map_instances(worker, instances, jobs)


def sweep_pipeline(
    instances: Sequence[GraphInstance],
    k_values: Sequence[int],
    trials: int = 5,
    variant: FractionalVariant = FractionalVariant.UNKNOWN_DELTA,
    seed: int = 0,
    backend: str = "auto",
    jobs: int = 1,
    shards: int | None = None,
) -> list[ExperimentRecord]:
    """Run the full pipeline over instances × k, averaging over trials.

    The expected-size guarantee of Theorem 6 is about the mean over the
    rounding randomness, so each (instance, k) cell aggregates ``trials``
    independent executions.  Only the rounding coins depend on the trial:
    the deterministic fractional phase is solved once per (instance, k) and
    its solution is rounded under ``trials`` seeds in one batch.
    ``backend`` selects the execution engine for both pipeline phases;
    seeds produce the same sets on every engine.  ``jobs`` parallelizes
    across instances with a process pool; ``shards=N`` pins the sharded
    engine per instance.
    """
    worker = partial(
        _kw_instance_records,
        columns=_pipeline_columns,
        algorithm="kuhn-wattenhofer",
        k_values=_checked_inputs(jobs, trials, k_values),
        variant=variant,
        seed=seed,
        backend=backend,
        shards=shards,
        trials=trials,
    )
    return _map_instances(worker, instances, jobs)


def sweep_tradeoff(
    instances: Sequence[GraphInstance],
    k_values: Sequence[int],
    trials: int = 5,
    variant: FractionalVariant = FractionalVariant.UNKNOWN_DELTA,
    seed: int = 0,
    backend: str = "auto",
    jobs: int = 1,
    sparse_lp: bool = False,
    shards: int | None = None,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> list[ExperimentRecord]:
    """The paper's k-vs-quality trade-off curve over instances × k.

    Each record pairs the measured mean ratio (over ``trials`` rounding
    seeds) with the Theorem-6 upper-bound curve and the KMW
    ``Ω(Δ^{1/k}/k)`` lower-bound shape for the same (k, Δ), plus measured
    and guaranteed round counts -- everything ``bench_tradeoff_curve`` and
    the CLI ``tradeoff`` sub-command print.  All k values of an instance
    are evaluated from one fractional snapshot-engine execution;
    ``jobs`` parallelizes across instances.

    For CSR instances the LP ratio column is NaN by default (use the
    ``mean_ratio_vs_dual`` column, whose Lemma-1 denominator is cheap at
    any scale); pass ``sparse_lp=True`` to solve LP_MDS sparsely and get
    the true LP denominator at the cost of tens of seconds per n = 20 000
    instance -- or combine it with ``lp_method="pdhg"`` for a certified
    denominator (relative gap ≤ ``lp_tol``) at a fraction of that cost on
    solver-bound instances.
    """
    worker = partial(
        _kw_instance_records,
        columns=_tradeoff_columns,
        algorithm="tradeoff",
        k_values=_checked_inputs(jobs, trials, k_values),
        variant=variant,
        seed=seed,
        backend=backend,
        shards=shards,
        trials=trials,
        sparse_lp=sparse_lp,
        lp_method=lp_method,
        lp_tol=lp_tol,
    )
    return _map_instances(worker, instances, jobs)


# ---------------------------------------------------------------------- #
# Fault-degradation sweep                                                 #
# ---------------------------------------------------------------------- #

#: Default (loss_probability, crash_probability) grid for fault sweeps:
#: the fault-free reference point, loss-only and crash-only curves, and
#: one mixed regime.
DEFAULT_FAULT_RATES: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.1, 0.0),
    (0.3, 0.0),
    (0.0, 0.1),
    (0.0, 0.3),
    (0.2, 0.2),
)


def _sweep_faults_instance(
    instance: GraphInstance,
    fault_rates: Sequence[tuple[float, float]],
    k: int,
    trials: int,
    variant: FractionalVariant,
    seed: int,
    backend: str,
    shards: int | None = None,
) -> list[ExperimentRecord]:
    """All fault-degradation records of one instance.

    Each (loss, crash) cell runs the faulted pipeline ``trials`` times
    (independent fault draws *and* rounding coins per trial), always with
    the self-healing repair phase on, and reports how far the degraded
    output strayed from feasibility and from the fault-free baseline --
    the deficit repair had to patch, the patch size, and the fault
    bookkeeping (crashed nodes, dropped messages) behind it.
    """
    from repro.api import resolve_backend, solve
    from repro.simulator.fault_schedule import FaultSpec

    backend = resolve_backend(
        "kuhn-wattenhofer", instance.graph, backend=backend, shards=shards
    )
    run = partial(
        solve,
        "kuhn-wattenhofer",
        instance.graph,
        backend=backend,
        k=k,
        variant=variant,
        shards=shards,
    )
    baseline = run(seed=seed)
    records: list[ExperimentRecord] = []
    for loss, crash in fault_rates:
        samples = []
        for trial in range(trials):
            report = run(
                seed=seed + trial,
                faults=FaultSpec(
                    loss_probability=loss,
                    crash_probability=crash,
                    seed=seed + trial,
                ),
                repair=True,
            )
            repair = report.repair
            if repair is None or not repair.feasible_after:
                raise RuntimeError(
                    f"faulted pipeline left an infeasible set on {instance.name}"
                )
            summaries = report.fault_summaries
            samples.append(
                (
                    repair.objective_before,
                    repair.objective_after,
                    repair.coverage_deficit,
                    len(repair.patched_nodes),
                    repair.repair_rounds,
                    repair.was_degraded,
                    summaries["rounding"].crashed_nodes,
                    sum(summary.dropped_messages for summary in summaries.values()),
                )
            )
        # Per-column means over the trials.
        raw, repaired, deficit, patched, repair_rounds, degraded, crashed, dropped = (
            sum(map(float, column)) / trials for column in zip(*samples)
        )
        records.append(
            ExperimentRecord(
                instance=instance.name,
                algorithm=f"faulted-kw[{variant.value}]",
                parameters={
                    "loss": loss,
                    "crash": crash,
                    "k": k,
                    "n": instance.node_count,
                    "delta": instance.max_degree,
                },
                measurements={
                    "baseline_size": float(baseline.size),
                    "mean_raw_size": raw,
                    "mean_repaired_size": repaired,
                    "mean_size_vs_baseline": _ratio(repaired, baseline.size),
                    "mean_coverage_deficit": deficit,
                    "mean_patched_nodes": patched,
                    "mean_repair_rounds": repair_rounds,
                    "degraded_fraction": degraded,
                    "mean_crashed_nodes": crashed,
                    "mean_dropped_messages": dropped,
                    "trials": float(trials),
                },
            )
        )
    return records


def sweep_faults(
    instances: Sequence[GraphInstance],
    fault_rates: Sequence[tuple[float, float]] = DEFAULT_FAULT_RATES,
    k: int = 2,
    trials: int = 3,
    variant: FractionalVariant = FractionalVariant.UNKNOWN_DELTA,
    seed: int = 0,
    backend: str = "auto",
    jobs: int = 1,
    shards: int | None = None,
) -> list[ExperimentRecord]:
    """Measure pipeline degradation under fault injection, with repair on.

    For every instance and every ``(loss_probability, crash_probability)``
    pair the Kuhn–Wattenhofer pipeline runs under a materialized
    :class:`~repro.simulator.fault_schedule.FaultSpec` and the self-healing
    repair phase patches whatever coverage the faults destroyed.  Records
    report the repaired size against the fault-free baseline, the coverage
    deficit repair had to close, the patch size and its round cost, and
    the fault bookkeeping (crashed nodes, dropped messages) -- the
    degradation curve the robustness benchmark and the CLI ``faults``
    sub-command print.  Fault masks are identical on every backend, so
    ``backend`` (and ``shards=N``) changes only the wall-clock, never the
    records.  ``jobs`` parallelizes across instances with a process pool.
    """
    (k,) = _checked_inputs(jobs, trials, (k,))
    for loss, crash in fault_rates:
        if not (0.0 <= loss <= 1.0 and 0.0 <= crash <= 1.0):
            raise ValueError(
                f"fault rates must be probabilities in [0, 1]; got ({loss}, {crash})"
            )
    worker = partial(
        _sweep_faults_instance,
        fault_rates=tuple(tuple(pair) for pair in fault_rates),
        k=k,
        trials=trials,
        variant=variant,
        seed=seed,
        backend=backend,
        shards=shards,
    )
    return _map_instances(worker, instances, jobs)


# ---------------------------------------------------------------------- #
# Connected dominating set comparison                                     #
# ---------------------------------------------------------------------- #


def _sweep_cds_instance(
    instance: GraphInstance,
    k: int,
    seed: int,
    backend: str,
) -> list[ExperimentRecord]:
    """All CDS records of one (connected) instance.

    Compares four backbones: the registered ``kw-connect`` spec (pipeline
    plus connectification), the (bucket-queue) greedy plus
    connectification, Wu–Li marking (connectified only when its
    pruning left the backbone disconnected), and the registered
    ``guha-khuller`` spec -- on every substrate, since the bucket-queue
    CSR twin keeps the centralized quality reference affordable at the
    n ≥ 20 000 scale.  Every backbone is validated as a CDS before
    reporting.
    """
    from repro.api import resolve_backend, solve
    from repro.cds.connectify import connect_dominating_set
    from repro.cds.validation import is_connected_dominating_set

    backend = resolve_backend("kw-connect", instance.graph, backend=backend)
    graph = instance.graph
    # Backend resolution has already forced the vectorized engine for bulk
    # instances, so one pass-through serves both substrates.
    run = partial(solve, graph=graph, backend=backend, seed=seed)
    kw_report = run("kw-connect", k=k)
    wu_li = run("wu-li")
    wu_li_cds = wu_li.dominating_set
    if not is_connected_dominating_set(graph, wu_li_cds):
        wu_li_cds = connect_dominating_set(graph, wu_li_cds)
    greedy = run("greedy").dominating_set
    gk = run("guha-khuller").dominating_set
    # (name, backbone, the dominating set it grew from, distributed rounds)
    entries = [
        (
            f"kw(k={k})+connect",
            kw_report.dominating_set,
            kw_report.raw[1].dominating_set,
            float(kw_report.rounds),
        ),
        ("wu-li(+connect)", wu_li_cds, wu_li.dominating_set, float(wu_li.rounds)),
        ("greedy+connect", connect_dominating_set(graph, greedy), greedy, float("nan")),
        ("guha-khuller (centralized)", gk, gk, float("nan")),
    ]

    records = []
    for name, backbone, base, rounds in entries:
        if not is_connected_dominating_set(graph, backbone):
            raise RuntimeError(
                f"algorithm {name!r} produced an invalid CDS on {instance.name}"
            )
        records.append(
            ExperimentRecord(
                instance=instance.name,
                algorithm=name,
                parameters={
                    "n": instance.node_count,
                    "delta": instance.max_degree,
                },
                measurements={
                    "backbone_size": float(len(backbone)),
                    "base_size": float(len(base)),
                    "connectors_added": float(len(backbone) - len(base & backbone)),
                    "distributed_rounds": rounds,
                },
            )
        )
    return records


def sweep_cds(
    instances: Sequence[GraphInstance],
    k: int = 2,
    seed: int = 0,
    backend: str = "auto",
    jobs: int = 1,
) -> list[ExperimentRecord]:
    """Compare connected dominating set backbones over (connected) instances.

    Instances must be connected graphs (a disconnected graph has no CDS);
    use :func:`repro.cds.bulk.bulk_largest_component` or the networkx
    equivalent to preprocess.  Works on networkx and CSR instances alike --
    at the CSR scale every stage (pipeline, greedy, Wu–Li,
    connectification, validation) runs on the bulk engine.  ``jobs``
    parallelizes across instances with a process pool.
    """
    (k,) = _checked_inputs(jobs, k_values=(k,))
    worker = partial(_sweep_cds_instance, k=k, seed=seed, backend=backend)
    return _map_instances(worker, instances, jobs)


# ---------------------------------------------------------------------- #
# Algorithm comparison                                                    #
# ---------------------------------------------------------------------- #


def _instance_algorithms(
    instance: GraphInstance,
    algorithms: "Mapping[str, Callable] | Sequence[str] | None",
    backend: str,
    overrides: "Mapping[str, Mapping[str, Any]] | None",
    shards: int | None = None,
) -> "Mapping[str, Callable[[nx.Graph, int], Iterable]]":
    """The comparison callables to run on one instance.

    An explicit mapping passes through unchanged (legacy callers); a
    sequence of registry names, or ``None`` (= every spec registered for
    comparison), is resolved through :func:`repro.api.comparison_algorithms`
    against the instance's substrate -- CSR instances keep only
    bulk-capable specs.  ``shards=N`` is forwarded only to sharded-capable
    specs (passing it to the rest would be a capability error, and a
    comparison mixing both kinds is the norm).
    """
    if isinstance(algorithms, Mapping):
        return algorithms
    from repro.api import comparison_algorithms, get_spec

    resolved = comparison_algorithms(
        bulk=instance.is_bulk,
        backend=backend,
        names=algorithms,
        overrides=overrides,
    )
    if shards is not None:
        resolved = {
            name: partial(call, shards=shards)
            if get_spec(name).supports_backend(SHARDED)
            else call
            for name, call in resolved.items()
        }
    return resolved


def _compare_instance(
    instance: GraphInstance,
    algorithms: "Mapping[str, Callable] | Sequence[str] | None",
    trials: int,
    seed: int,
    backend: str = "auto",
    overrides: "Mapping[str, Mapping[str, Any]] | None" = None,
    sparse_lp: bool = False,
    shards: int | None = None,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> list[ExperimentRecord]:
    """All comparison records of one instance (one process-pool work unit)."""
    records: list[ExperimentRecord] = []
    lp_optimum = _lp_reference(
        instance, sparse_for_bulk=sparse_lp, lp_method=lp_method, lp_tol=lp_tol
    )
    delta = instance.max_degree
    registry_driven = not isinstance(algorithms, Mapping)
    if registry_driven:
        from repro.api import get_spec
    resolved = _instance_algorithms(instance, algorithms, backend, overrides, shards)
    for name, algorithm in resolved.items():
        # Registry specs declare determinism: one trial suffices (the
        # summary statistics of identical repetitions are identical).
        # Legacy callable mappings keep the full trial count -- their
        # names carry no capability metadata.
        if registry_driven:
            effective_trials = 1 if get_spec(name).deterministic else trials
        else:
            effective_trials = trials
        sizes = []
        for trial in range(effective_trials):
            candidate = frozenset(algorithm(instance.graph, seed + trial))
            if not is_dominating_set(instance.graph, candidate):
                raise RuntimeError(
                    f"algorithm {name!r} returned a non-dominating set "
                    f"on {instance.name}"
                )
            sizes.append(float(len(candidate)))
        summary = summarize(sizes)
        records.append(
            ExperimentRecord(
                instance=instance.name,
                algorithm=name,
                parameters={"n": instance.node_count, "delta": delta},
                measurements={
                    "mean_size": summary.mean,
                    "min_size": summary.minimum,
                    "max_size": summary.maximum,
                    "lp_optimum": lp_optimum,
                    "mean_ratio_vs_lp": _ratio(summary.mean, lp_optimum),
                },
            )
        )
    return records


def compare_algorithms(
    instances: Sequence[GraphInstance],
    algorithms: "Mapping[str, Callable] | Sequence[str] | None" = None,
    trials: int = 3,
    seed: int = 0,
    jobs: int = 1,
    backend: str = "auto",
    overrides: "Mapping[str, Mapping[str, Any]] | None" = None,
    sparse_lp: bool = False,
    shards: int | None = None,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> list[ExperimentRecord]:
    """Run dominating set algorithms over instances and record sizes.

    Parameters
    ----------
    instances:
        Graphs to evaluate on.  Bulk (CSR) instances keep only the
        bulk-capable registry specs; the LP reference column is skipped
        for them.
    algorithms:
        What to compare.  ``None`` (the default) enumerates every spec
        the :mod:`repro.api` registry marks for comparison -- newly
        registered algorithms join automatically.  A sequence of registry
        names restricts to those algorithms.  A mapping from name to a
        callable ``(graph, seed) -> set`` bypasses the registry entirely
        (legacy interface).  With ``jobs > 1`` callables must be
        picklable (module-level functions or ``functools.partial`` of
        them -- not lambdas; the registry-produced callables always are).
    trials:
        Number of seeds per (instance, algorithm) pair -- deterministic
        algorithms simply produce identical rows.
    seed:
        Base seed.
    jobs:
        Process-pool width across instances.
    backend:
        Execution backend forwarded to registry-driven algorithms
        (``"auto"`` resolves per spec capabilities and instance; ignored
        for explicit callable mappings, which bind their own backend).
    overrides:
        Per-algorithm parameter overrides for registry-driven runs, e.g.
        ``{"kuhn-wattenhofer": {"k": 3}}``.
    sparse_lp:
        Solve LP_MDS sparsely for CSR instances so the comparison's
        LP-ratio column is real instead of NaN (tens of seconds per
        n = 20 000 instance; networkx instances always solve the LP).
    shards:
        Shard count forwarded to sharded-capable registry specs (the rest
        run unchanged); requires ``backend`` ``"auto"`` or ``"sharded"``.
    lp_method / lp_tol:
        LP solver for the reference column: exact ``"highs"`` (default)
        or the certified first-order method (``"pdhg"`` at relative gap
        ``lp_tol``) -- much faster on solver-bound
        instances at n ≥ 20 000.

    Returns
    -------
    list[ExperimentRecord]
    """
    _checked_inputs(jobs, trials)
    if isinstance(algorithms, Mapping):
        algorithms = dict(algorithms)
    elif algorithms is not None:
        algorithms = tuple(algorithms)
    worker = partial(
        _compare_instance,
        algorithms=algorithms,
        trials=trials,
        seed=seed,
        backend=backend,
        overrides=dict(overrides) if overrides else None,
        sparse_lp=sparse_lp,
        shards=shards,
        lp_method=lp_method,
        lp_tol=lp_tol,
    )
    return _map_instances(worker, instances, jobs)
