"""Experiment runner: parameter sweeps shared by benchmarks, CLI and examples.

The benchmarks all have the same shape -- run one or more algorithms over a
collection of graphs (and a range of k values, and several random trials),
collect per-run records, and aggregate them into the rows the paper's claims
correspond to.  This module centralises that machinery so every benchmark
file stays a thin declaration of *what* to measure.

Two scaling features let sweeps run far past the networkx comfort zone:

* instances may wrap CSR :class:`~repro.simulator.bulk.BulkGraph` objects
  (e.g. from ``graph_suite("xlarge")``); those sweep with the vectorized
  backend and skip the (dense, centralized) LP reference columns, and
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
CLI ``compare`` sub-command) without touching this module.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

import networkx as nx

from repro.analysis.bounds import (
    algorithm2_approximation_bound,
    algorithm3_approximation_bound,
    kmw_lower_bound,
    pipeline_expected_ratio_bound,
    pipeline_round_bound,
)
from repro.analysis.stats import summarize
from repro.core.fractional import (
    approximate_fractional_mds,
    approximate_fractional_mds_multi_k,
)
from repro.core.fractional_unknown import (
    approximate_fractional_mds_unknown_delta,
    approximate_fractional_mds_unknown_delta_multi_k,
)
from repro.core.kuhn_wattenhofer import FractionalVariant
from repro.core.rounding import round_fractional_solution_batched
from repro.core.vectorized import SHARDED, VECTORIZED, bulk_engine
from repro.simulator.bulk import BulkGraph
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


def _resolve_instance_backend(
    instance: GraphInstance,
    backend: str,
    algorithm: str = "kuhn-wattenhofer",
    shards: int | None = None,
) -> str:
    """Capability-based backend resolution for one sweep instance.

    Delegates to the :mod:`repro.api` registry: ``"auto"`` resolves to the
    vectorized engine for CSR instances and large graphs, and impossible
    combinations (a ``BulkGraph`` under ``backend="simulated"``, ...)
    raise the registry's single
    :class:`~repro.core.vectorized.CapabilityError`.  Imported lazily so
    process-pool workers only pay for the registry when a sweep runs.
    """
    from repro.api import get_spec, resolve_backend

    return resolve_backend(
        get_spec(algorithm), instance.graph, backend=backend, shards=shards
    )


def _lp_reference(
    instance: GraphInstance,
    sparse_for_bulk: bool = False,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> float:
    """The centralized LP optimum reference for one instance.

    CSR instances report NaN by default (the dense solve is the very cost
    the bulk path avoids); with ``sparse_for_bulk`` they are solved through
    :func:`~repro.lp.solver.solve_fractional_mds_sparse` instead -- exact,
    O(n + m) memory, but tens of seconds at n = 20 000, so sweeps only opt
    in when the caller asks for the LP ratio column at that scale.
    ``lp_method="pdhg"`` / ``"mwu"`` swap the exact solve for a certified
    first-order one (relative gap ≤ ``lp_tol``): the right trade on
    solver-bound instances, where HiGHS -- not the formulation -- is the
    bottleneck.
    """
    if instance.is_bulk:
        if sparse_for_bulk:
            from repro.lp.solver import solve_fractional_mds_sparse

            return solve_fractional_mds_sparse(
                instance.graph, method=lp_method, tol=lp_tol
            ).objective
        return float("nan")
    return solve_fractional_mds(
        instance.graph, method=lp_method, tol=lp_tol
    ).objective


def _prebuild_bulk(instance: GraphInstance, backend: str) -> BulkGraph | None:
    """One CSR build per instance for bulk-engine sweeps (None otherwise)."""
    if backend in (VECTORIZED, SHARDED) and not instance.is_bulk:
        return BulkGraph.from_graph(instance.graph)
    return None


def _instance_engine(
    instance: GraphInstance,
    backend: str,
    bulk: BulkGraph | None,
    shards: int | None,
):
    """One engine per instance for bulk sweeps (a ``with`` context).

    On the sharded backend forking, sharing the CSR and partitioning are
    paid once; the whole k sweep (fractional snapshots + every rounding
    batch) then reuses the resident workers.
    """
    return bulk_engine(
        bulk if bulk is not None else instance.graph, backend, shards
    )


def _fractional_sweep(
    instance: GraphInstance,
    k_values: Sequence[int],
    variant: FractionalVariant,
    seed: int,
    backend: str,
    bulk: BulkGraph | None,
    executor=None,
):
    """One multi-k fractional execution covering the whole k sweep.

    On the bulk backends the snapshot engine runs the entire sweep in
    a single engine invocation (per-k results bitwise equal to independent
    runs); on the simulated backend the entry point loops per k.  Either
    way every (instance, k) cell comes from *one* call here.
    """
    if variant is FractionalVariant.KNOWN_DELTA:
        return approximate_fractional_mds_multi_k(
            instance.graph,
            k_values,
            seed=seed,
            backend=backend,
            _bulk=bulk,
            _executor=executor,
        )
    return approximate_fractional_mds_unknown_delta_multi_k(
        instance.graph,
        k_values,
        seed=seed,
        backend=backend,
        _bulk=bulk,
        _executor=executor,
    )


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
    (``os.process_cpu_count`` where available, affinity-blind
    ``os.cpu_count`` otherwise), and a worker failure is re-raised with
    the failing instance's name attached -- a sweep over fifty graphs
    should say *which* one died.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1 or len(instances) <= 1:
        per_instance = [worker(instance) for instance in instances]
    else:
        cpus = getattr(os, "process_cpu_count", os.cpu_count)() or 1
        workers = max(1, min(jobs, len(instances), cpus))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, instance) for instance in instances]
            per_instance = []
            for instance, future in zip(instances, futures):
                try:
                    per_instance.append(future.result())
                except Exception as error:
                    error.args = (
                        f"sweep worker failed on instance {instance.name!r}: "
                        + ", ".join(str(arg) for arg in error.args),
                    )
                    raise
    return [record for records in per_instance for record in records]


# ---------------------------------------------------------------------- #
# Fractional sweep                                                        #
# ---------------------------------------------------------------------- #


def _sweep_fractional_instance(
    instance: GraphInstance,
    k_values: Sequence[int],
    variant: FractionalVariant,
    seed: int,
    backend: str,
    shards: int | None = None,
) -> list[ExperimentRecord]:
    """All fractional records of one instance (one process-pool work unit)."""
    backend = _resolve_instance_backend(instance, backend, shards=shards)
    records: list[ExperimentRecord] = []
    lp_optimum = _lp_reference(instance)
    delta = instance.max_degree
    # One CSR build per instance; the whole k sweep runs as one fractional
    # execution through the snapshot engine.
    bulk = _prebuild_bulk(instance, backend)
    with _instance_engine(instance, backend, bulk, shards) as executor:
        fractional_by_k = _fractional_sweep(
            instance, k_values, variant, seed, backend, bulk, executor
        )
    for k in k_values:
        result = fractional_by_k[k]
        if variant is FractionalVariant.KNOWN_DELTA:
            bound = algorithm2_approximation_bound(k, delta)
        else:
            bound = algorithm3_approximation_bound(k, delta)
        ratio = result.objective / lp_optimum if lp_optimum > 0 else float("nan")
        records.append(
            ExperimentRecord(
                instance=instance.name,
                algorithm=f"fractional[{variant.value}]",
                parameters={"k": k, "n": instance.node_count, "delta": delta},
                measurements={
                    "objective": result.objective,
                    "lp_optimum": lp_optimum,
                    "ratio": ratio,
                    "bound": bound,
                    "rounds": result.rounds,
                    "max_messages_per_node": result.metrics.max_messages_per_node,
                    "max_message_bits": result.metrics.max_message_bits,
                },
            )
        )
    return records


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
        _sweep_fractional_instance,
        k_values=tuple(k_values),
        variant=variant,
        seed=seed,
        backend=backend,
        shards=shards,
    )
    return _map_instances(worker, instances, jobs)


# ---------------------------------------------------------------------- #
# Pipeline sweep                                                          #
# ---------------------------------------------------------------------- #


def _sweep_pipeline_instance(
    instance: GraphInstance,
    k_values: Sequence[int],
    trials: int,
    variant: FractionalVariant,
    seed: int,
    backend: str,
    shards: int | None = None,
) -> list[ExperimentRecord]:
    """All pipeline records of one instance (one process-pool work unit).

    The fractional phase is deterministic (its seed is bookkeeping only),
    so it -- and its feasibility check -- runs *once* per (instance, k);
    the per-trial loop only redraws the rounding coins, through the batched
    rounding entry point.  Record values are identical to running the full
    pipeline once per trial, just without re-paying the seed-independent
    phases.
    """
    backend = _resolve_instance_backend(instance, backend, shards=shards)
    records: list[ExperimentRecord] = []
    lower_bound = lemma1_lower_bound(instance.graph)
    lp_optimum = _lp_reference(instance)
    delta = instance.max_degree
    # One CSR build per instance; the deterministic fractional phase of the
    # whole k sweep is one snapshot-engine execution, and each k's solution
    # is rounded under all trial seeds in one batch.  On the sharded
    # backend one resident shard pool serves all of it.
    bulk = _prebuild_bulk(instance, backend)
    with _instance_engine(instance, backend, bulk, shards) as executor:
        fractional_by_k = _fractional_sweep(
            instance, k_values, variant, seed, backend, bulk, executor
        )
        roundings_by_k = {
            k: round_fractional_solution_batched(
                instance.graph,
                fractional_by_k[k].x,
                seeds=[seed + trial for trial in range(trials)],
                require_feasible=True,  # the per-trial pipelines checked this
                backend=backend,
                _bulk=bulk,
                _executor=executor,
            )
            for k in k_values
        }
    for k in k_values:
        fractional = fractional_by_k[k]
        roundings = roundings_by_k[k]
        sizes = []
        rounds = []
        for rounding in roundings:
            if not is_dominating_set(instance.graph, rounding.dominating_set):
                raise RuntimeError(
                    f"pipeline produced a non-dominating set on {instance.name}"
                )
            sizes.append(float(len(rounding.dominating_set)))
            rounds.append(float(fractional.rounds + rounding.rounds))
        size_summary = summarize(sizes)
        records.append(
            ExperimentRecord(
                instance=instance.name,
                algorithm=f"kuhn-wattenhofer[{variant.value}]",
                parameters={"k": k, "n": instance.node_count, "delta": delta},
                measurements={
                    "mean_size": size_summary.mean,
                    "std_size": size_summary.std,
                    "lp_optimum": lp_optimum,
                    "dual_lower_bound": lower_bound,
                    "mean_ratio_vs_lp": size_summary.mean / lp_optimum
                    if lp_optimum > 0
                    else float("nan"),
                    "bound": pipeline_expected_ratio_bound(k, delta),
                    "mean_rounds": sum(rounds) / len(rounds),
                    "trials": float(trials),
                },
            )
        )
    return records


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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    worker = partial(
        _sweep_pipeline_instance,
        k_values=tuple(k_values),
        trials=trials,
        variant=variant,
        seed=seed,
        backend=backend,
        shards=shards,
    )
    return _map_instances(worker, instances, jobs)


# ---------------------------------------------------------------------- #
# Trade-off sweep (measured ratio vs. the paper's bound curves)           #
# ---------------------------------------------------------------------- #


def _sweep_tradeoff_instance(
    instance: GraphInstance,
    k_values: Sequence[int],
    trials: int,
    variant: FractionalVariant,
    seed: int,
    backend: str,
    sparse_lp: bool,
    shards: int | None = None,
    lp_method: str = "highs",
    lp_tol: float = 1e-3,
) -> list[ExperimentRecord]:
    """All trade-off records of one instance (one process-pool work unit).

    Like the pipeline sweep, the deterministic fractional phase of the
    whole k sweep is a *single* snapshot-engine execution; each record adds
    the Theorem-6 upper bound, the KMW lower-bound shape and the round
    bound so callers can place the measured curve between the two shapes.
    """
    backend = _resolve_instance_backend(instance, backend, shards=shards)
    records: list[ExperimentRecord] = []
    lower_bound = lemma1_lower_bound(instance.graph)
    lp_optimum = _lp_reference(
        instance, sparse_for_bulk=sparse_lp, lp_method=lp_method, lp_tol=lp_tol
    )
    delta = instance.max_degree
    bulk = _prebuild_bulk(instance, backend)
    with _instance_engine(instance, backend, bulk, shards) as executor:
        fractional_by_k = _fractional_sweep(
            instance, k_values, variant, seed, backend, bulk, executor
        )
        roundings_by_k = {
            k: round_fractional_solution_batched(
                instance.graph,
                fractional_by_k[k].x,
                seeds=[seed + trial for trial in range(trials)],
                require_feasible=True,
                backend=backend,
                _bulk=bulk,
                _executor=executor,
            )
            for k in k_values
        }
    for k in k_values:
        fractional = fractional_by_k[k]
        roundings = roundings_by_k[k]
        sizes = []
        for rounding in roundings:
            if not is_dominating_set(instance.graph, rounding.dominating_set):
                raise RuntimeError(
                    f"pipeline produced a non-dominating set on {instance.name}"
                )
            sizes.append(float(len(rounding.dominating_set)))
        size_summary = summarize(sizes)
        reference = lp_optimum if lp_optimum > 0 else float("nan")
        records.append(
            ExperimentRecord(
                instance=instance.name,
                algorithm=f"tradeoff[{variant.value}]",
                parameters={"k": k, "n": instance.node_count, "delta": delta},
                measurements={
                    "mean_size": size_summary.mean,
                    "lp_optimum": lp_optimum,
                    "dual_lower_bound": lower_bound,
                    "mean_ratio_vs_lp": size_summary.mean / reference,
                    "mean_ratio_vs_dual": size_summary.mean / lower_bound
                    if lower_bound > 0
                    else float("nan"),
                    "upper_bound_thm6": pipeline_expected_ratio_bound(k, delta),
                    "lower_bound_shape_kmw": kmw_lower_bound(k, delta),
                    "rounds": float(fractional.rounds + roundings[0].rounds),
                    "round_bound": float(pipeline_round_bound(k)),
                    "trials": float(trials),
                },
            )
        )
    return records


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
    if trials < 1:
        raise ValueError("trials must be at least 1")
    worker = partial(
        _sweep_tradeoff_instance,
        k_values=tuple(k_values),
        trials=trials,
        variant=variant,
        seed=seed,
        backend=backend,
        sparse_lp=sparse_lp,
        shards=shards,
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
    from repro.api import solve
    from repro.simulator.fault_schedule import FaultSpec

    backend = _resolve_instance_backend(instance, backend, shards=shards)
    baseline = solve(
        "kuhn-wattenhofer",
        instance.graph,
        backend=backend,
        seed=seed,
        k=k,
        variant=variant,
        shards=shards,
    )
    delta = instance.max_degree
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    records: list[ExperimentRecord] = []
    for loss, crash in fault_rates:
        raw_sizes: list[float] = []
        repaired_sizes: list[float] = []
        deficits: list[float] = []
        patched: list[float] = []
        repair_rounds: list[float] = []
        crashed: list[float] = []
        dropped: list[float] = []
        degraded_trials = 0
        for trial in range(trials):
            report = solve(
                "kuhn-wattenhofer",
                instance.graph,
                backend=backend,
                seed=seed + trial,
                k=k,
                variant=variant,
                shards=shards,
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
            raw_sizes.append(float(repair.objective_before))
            repaired_sizes.append(float(repair.objective_after))
            deficits.append(float(repair.coverage_deficit))
            patched.append(float(len(repair.patched_nodes)))
            repair_rounds.append(float(repair.repair_rounds))
            degraded_trials += int(repair.was_degraded)
            summaries = report.fault_summaries
            crashed.append(float(summaries["rounding"].crashed_nodes))
            dropped.append(
                float(sum(summary.dropped_messages for summary in summaries.values()))
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
                    "delta": delta,
                },
                measurements={
                    "baseline_size": float(baseline.size),
                    "mean_raw_size": mean(raw_sizes),
                    "mean_repaired_size": mean(repaired_sizes),
                    "mean_size_vs_baseline": mean(repaired_sizes) / baseline.size
                    if baseline.size
                    else float("nan"),
                    "mean_coverage_deficit": mean(deficits),
                    "mean_patched_nodes": mean(patched),
                    "mean_repair_rounds": mean(repair_rounds),
                    "degraded_fraction": degraded_trials / trials,
                    "mean_crashed_nodes": mean(crashed),
                    "mean_dropped_messages": mean(dropped),
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
    if trials < 1:
        raise ValueError("trials must be at least 1")
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
    from repro.api import solve
    from repro.cds.connectify import connect_dominating_set
    from repro.cds.validation import is_connected_dominating_set

    backend = _resolve_instance_backend(instance, backend, algorithm="kw-connect")
    graph = instance.graph

    entries: list[tuple[str, frozenset, frozenset, float | None]] = []

    kw_report = solve("kw-connect", graph, backend=backend, seed=seed, k=k)
    _, pipeline = kw_report.raw
    entries.append(
        (
            f"kw(k={k})+connect",
            kw_report.dominating_set,
            pipeline.dominating_set,
            float(kw_report.rounds),
        )
    )

    # Backend resolution has already forced the vectorized engine for bulk
    # instances, so one pass-through serves both substrates.
    wu_li_report = solve("wu-li", graph, backend=backend, seed=seed)
    wu_li_cds = wu_li_report.dominating_set
    if not is_connected_dominating_set(graph, wu_li_cds):
        wu_li_cds = connect_dominating_set(graph, wu_li_report.dominating_set)
    entries.append(
        (
            "wu-li(+connect)",
            wu_li_cds,
            wu_li_report.dominating_set,
            float(wu_li_report.rounds),
        )
    )

    greedy = solve("greedy", graph, backend=backend, seed=seed).dominating_set
    entries.append(("greedy+connect", connect_dominating_set(graph, greedy), greedy, None))

    gk = solve("guha-khuller", graph, backend=backend, seed=seed).dominating_set
    entries.append(("guha-khuller (centralized)", gk, gk, None))

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
                    "distributed_rounds": rounds if rounds is not None else float("nan"),
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
    from repro.core.vectorized import SHARDED

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
                    "mean_ratio_vs_lp": summary.mean / lp_optimum
                    if lp_optimum > 0
                    else float("nan"),
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
        n = 20 000 instance; dense instances always use the exact LP).
    shards:
        Shard count forwarded to sharded-capable registry specs (the rest
        run unchanged); requires ``backend`` ``"auto"`` or ``"sharded"``.
    lp_method / lp_tol:
        LP solver for the reference column: exact ``"highs"`` (default)
        or a certified first-order method (``"pdhg"`` / ``"mwu"`` at
        relative gap ``lp_tol``) -- much faster on solver-bound
        instances at n ≥ 20 000.

    Returns
    -------
    list[ExperimentRecord]
    """
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
