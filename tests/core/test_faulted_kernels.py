"""Faulted kernels: bitwise parity with the simulated runner.

The tentpole guarantee of the fault substrate is that one materialized
:class:`~repro.simulator.fault_schedule.FaultSchedule` drives every
backend to the *identical* degraded outcome: the masked vectorized
kernels must reproduce the per-node programs run under the
:class:`~repro.simulator.fault_schedule.ScheduledFaults` adapter bit for
bit -- x-vectors, membership sets, and the runner's drop bookkeeping.
These tests pin that equivalence on a grid of fault mixes (including the
total-loss and everyone-crashes extremes), plus the entry-point plumbing
(``faults=`` / repair on the pipeline) built on top of it.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.fractional import Algorithm2Program, approximate_fractional_mds
from repro.core.fractional_unknown import (
    Algorithm3Program,
    approximate_fractional_mds_unknown_delta,
)
from repro.core.kuhn_wattenhofer import (
    FractionalVariant,
    kuhn_wattenhofer_dominating_set,
)
from repro.core.rounding import (
    Algorithm1Program,
    RoundingRule,
    round_fractional_solution,
    rounding_multiplier,
)
from repro.core.vectorized import (
    ROUNDING_EXCHANGES,
    CapabilityError,
    algorithm2_exchanges,
    algorithm3_exchanges,
    run_algorithm2_bulk_multi_k,
    run_algorithm3_bulk_multi_k,
    run_rounding_bulk_batched,
)
from repro.domset.validation import is_dominating_set
from repro.simulator.bulk import BulkGraph
from repro.simulator.fault_schedule import FaultSpec
from repro.simulator.network import Network
from repro.simulator.runtime import SynchronousRunner

#: (loss_probability, crash_probability) mixes, including both extremes.
FAULT_MIXES = [
    (0.0, 0.0),
    (0.3, 0.0),
    (0.0, 0.3),
    (0.2, 0.2),
    (1.0, 0.0),
    (0.0, 1.0),
]


@pytest.fixture(scope="module")
def graph():
    return nx.gnp_random_graph(30, 0.15, seed=1)


@pytest.fixture(scope="module")
def bulk(graph):
    return BulkGraph.from_graph(graph)


class TestKernelParityWithSimulator:
    """Kernel-level: masked arrays == per-node programs, bit for bit."""

    @pytest.mark.parametrize("loss,crash", FAULT_MIXES)
    @pytest.mark.parametrize("k", [1, 2])
    def test_algorithm2(self, graph, bulk, loss, crash, k):
        delta = max(degree for _, degree in graph.degree())
        spec = FaultSpec(loss_probability=loss, crash_probability=crash, seed=7)
        exchanges = algorithm2_exchanges(k)
        schedule = spec.materialize(bulk, rounds=exchanges)
        network = Network(graph, lambda n, net: Algorithm2Program(k=k, delta=delta))
        execution = SynchronousRunner(
            network,
            fault_model=schedule.fault_model(bulk.nodes),
            max_rounds=exchanges + 8,
        ).run()
        simulated_x = np.array([network.program(n).x for n in bulk.nodes])
        kernel_x, _ = run_algorithm2_bulk_multi_k(
            bulk, (k,), delta, schedule=schedule
        )[k]
        assert np.array_equal(simulated_x, kernel_x)
        assert execution.drops == schedule.drops_dict(exchanges)

    @pytest.mark.parametrize("loss,crash", FAULT_MIXES)
    @pytest.mark.parametrize("k", [1, 2])
    def test_algorithm3(self, graph, bulk, loss, crash, k):
        spec = FaultSpec(loss_probability=loss, crash_probability=crash, seed=3)
        exchanges = algorithm3_exchanges(k)
        schedule = spec.materialize(bulk, rounds=exchanges)
        network = Network(graph, lambda n, net: Algorithm3Program(k=k))
        execution = SynchronousRunner(
            network,
            fault_model=schedule.fault_model(bulk.nodes),
            max_rounds=exchanges + 10,
        ).run()
        simulated_x = np.array([network.program(n).x for n in bulk.nodes])
        kernel_x, _ = run_algorithm3_bulk_multi_k(bulk, (k,), schedule=schedule)[k]
        assert np.array_equal(simulated_x, kernel_x)
        assert execution.drops == schedule.drops_dict(exchanges)

    @pytest.mark.parametrize("loss,crash", FAULT_MIXES)
    def test_rounding(self, graph, bulk, loss, crash):
        spec = FaultSpec(loss_probability=loss, crash_probability=crash, seed=5)
        x_map = {
            node: min(1.0, 0.08 + 0.01 * (index % 7))
            for index, node in enumerate(bulk.nodes)
        }
        schedule = spec.materialize(bulk, rounds=ROUNDING_EXCHANGES, salt=1)
        network = Network(
            graph,
            lambda n, net: Algorithm1Program(x_value=x_map[n], rule=RoundingRule.LOG),
            seed=42,
        )
        execution = SynchronousRunner(
            network, fault_model=schedule.fault_model(bulk.nodes), max_rounds=16
        ).run()
        simulated_set = frozenset(
            node for node, joined in execution.results.items() if joined
        )
        [(in_set, randomly, fallback, _)] = run_rounding_bulk_batched(
            bulk,
            np.array([x_map[n] for n in bulk.nodes]),
            seeds=[42],
            multiplier_for=lambda d2: rounding_multiplier(d2, RoundingRule.LOG),
            schedule=schedule,
        )
        nodes = np.array(bulk.nodes)
        assert simulated_set == frozenset(nodes[in_set].tolist())
        assert frozenset(
            n for n in bulk.nodes if network.program(n).joined_randomly
        ) == frozenset(nodes[randomly].tolist())
        assert frozenset(
            n for n in bulk.nodes if network.program(n).joined_as_fallback
        ) == frozenset(nodes[fallback].tolist())
        assert execution.drops == schedule.drops_dict(ROUNDING_EXCHANGES)

    def test_algorithm3_survives_total_message_loss(self, graph):
        """The a⁽¹⁾ = 0 hazard: with every witness message lost, an active
        gray node must skip the x-raise instead of evaluating 0^(-m/(m+1))."""
        result = approximate_fractional_mds_unknown_delta(
            graph, k=2, faults=FaultSpec(loss_probability=1.0, seed=0)
        )
        assert all(value >= 0.0 for value in result.x.values())


class TestEntryPointParity:
    """Entry-point level: ``faults=`` produces identical results across
    backends and surfaces the same FaultSummary."""

    @pytest.mark.parametrize("loss,crash", [(0.3, 0.0), (0.0, 0.3), (0.2, 0.2)])
    def test_fractional_backends_agree(self, graph, loss, crash):
        spec = FaultSpec(loss_probability=loss, crash_probability=crash, seed=2)
        for entry, kwargs in (
            (approximate_fractional_mds, {}),
            (approximate_fractional_mds_unknown_delta, {}),
        ):
            simulated = entry(graph, k=2, faults=spec, backend="simulated", **kwargs)
            vectorized = entry(graph, k=2, faults=spec, backend="vectorized", **kwargs)
            assert simulated.x == vectorized.x
            assert simulated.faults.drops == vectorized.faults.drops
            assert simulated.faults.crashed_nodes == vectorized.faults.crashed_nodes

    def test_rounding_backends_agree(self, graph):
        spec = FaultSpec(loss_probability=0.25, crash_probability=0.25, seed=9)
        x = approximate_fractional_mds(graph, k=2, backend="vectorized").x
        simulated = round_fractional_solution(
            graph, x, seed=4, faults=spec, backend="simulated"
        )
        vectorized = round_fractional_solution(
            graph, x, seed=4, faults=spec, backend="vectorized"
        )
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.joined_randomly == vectorized.joined_randomly
        assert simulated.joined_as_fallback == vectorized.joined_as_fallback

    def test_faults_must_be_a_spec(self, graph):
        with pytest.raises(TypeError, match="FaultSpec"):
            approximate_fractional_mds(graph, k=2, faults=0.5)
        with pytest.raises(TypeError, match="FaultSpec"):
            kuhn_wattenhofer_dominating_set(graph, k=2, faults=0.5)

    def test_collect_trace_rejected_under_faults(self, graph):
        with pytest.raises(CapabilityError, match="collect_trace"):
            approximate_fractional_mds(
                graph,
                k=2,
                faults=FaultSpec(loss_probability=0.1),
                collect_trace=True,
                backend="vectorized",
            )


class TestFaultedPipeline:
    @pytest.mark.parametrize("variant", list(FractionalVariant))
    @pytest.mark.parametrize("backend", ["simulated", "vectorized"])
    def test_repaired_pipeline_always_dominates(self, graph, variant, backend):
        spec = FaultSpec(loss_probability=0.3, crash_probability=0.3, seed=1)
        result = kuhn_wattenhofer_dominating_set(
            graph, k=2, seed=5, variant=variant, backend=backend, faults=spec
        )
        assert is_dominating_set(graph, result.dominating_set)
        assert result.repair is not None
        assert result.repair.feasible_after
        assert result.fractional.faults is not None
        assert result.rounding.faults is not None
        # Rounding-phase deaths include every fractional-phase casualty.
        assert (
            result.rounding.faults.crashed_nodes
            >= result.fractional.faults.crashed_nodes
        )

    def test_backends_agree_end_to_end(self, graph):
        spec = FaultSpec(loss_probability=0.25, crash_probability=0.25, seed=8)
        results = {
            backend: kuhn_wattenhofer_dominating_set(
                graph, k=2, seed=3, backend=backend, faults=spec
            )
            for backend in ("simulated", "vectorized")
        }
        assert (
            results["simulated"].dominating_set == results["vectorized"].dominating_set
        )
        assert results["simulated"].fractional.x == results["vectorized"].fractional.x
        assert results["simulated"].repair == results["vectorized"].repair

    def test_repair_false_returns_raw_degraded_set(self, graph):
        spec = FaultSpec(crash_probability=0.6, seed=2)
        raw = kuhn_wattenhofer_dominating_set(
            graph, k=2, seed=5, backend="vectorized", faults=spec, repair=False
        )
        assert raw.repair is None
        assert raw.dominating_set == raw.rounding.dominating_set

    @pytest.mark.parametrize("variant", list(FractionalVariant))
    @pytest.mark.parametrize("backend", ["vectorized", "sharded"])
    def test_faultfree_spec_changes_nothing(self, graph, variant, backend):
        """A zero-probability spec must reproduce the fault-free pipeline."""
        baseline = kuhn_wattenhofer_dominating_set(
            graph, k=2, seed=5, variant=variant, backend=backend
        )
        faulted = kuhn_wattenhofer_dominating_set(
            graph, k=2, seed=5, variant=variant, backend=backend, faults=FaultSpec()
        )
        assert faulted.dominating_set == baseline.dominating_set
        assert faulted.fractional.x == baseline.fractional.x
        assert faulted.fractional.metrics == baseline.fractional.metrics
        assert faulted.rounding.metrics == baseline.rounding.metrics
        assert faulted.repair is not None and not faulted.repair.was_degraded
