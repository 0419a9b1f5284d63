"""Tests for the unified algorithm registry and the ``solve()`` façade.

Four contracts are pinned here:

* **Dispatch** -- ``backend="auto"`` resolves from capabilities alone
  (vectorized wherever the spec has it, at every n; ``collect_trace``
  restricts to the spec's declared trace backends), auto runs match the
  simulated reference bit for bit, and every impossible combination
  raises the single :class:`CapabilityError` naming algorithm,
  capability and backends.
* **Registry completeness** -- everything reachable from the CLI and from
  ``compare_algorithms`` comes from the registry (no drift), and every
  spec's declared capabilities are honored (declared-bulk specs consume a
  ``BulkGraph`` without conversion, declared-trace specs trace, every
  declared backend executes).
* **RunReport** -- one normalised schema with back-compat accessors.
* **Back-compat** -- the classic public entry points keep their exact
  signatures, and ``solve`` reproduces their outputs bitwise.
"""

import inspect

import networkx as nx
import numpy as np
import pytest

from repro import api
from repro.api import (
    AUTO,
    AlgorithmSpec,
    CapabilityError,
    RunReport,
    algorithm_names,
    comparison_algorithms,
    get_spec,
    iter_specs,
    resolve_backend,
    solve,
    twin_specs,
)
from repro.core.kuhn_wattenhofer import FractionalVariant
from repro.core.vectorized import SHARDED, SIMULATED, VECTORIZED
from repro.graphs.bulk import bulk_grid_graph, bulk_unit_disk_graph
from repro.simulator.bulk import BulkGraph


@pytest.fixture(scope="module")
def small_graph():
    """A small connected graph every algorithm (incl. CDS specs) accepts."""
    graph = nx.random_geometric_graph(40, 0.3, seed=1)
    assert nx.is_connected(graph)
    return graph


@pytest.fixture(scope="module")
def bulk_graph():
    """A small connected CSR instance."""
    return bulk_grid_graph(5, 6)


class TestRegistry:
    def test_expected_algorithms_registered(self):
        names = set(algorithm_names())
        assert {
            "kuhn-wattenhofer",
            "greedy",
            "set-cover-greedy",
            "lrg",
            "wu-li",
            "central-lp",
            "mis",
            "random-fill",
            "all-nodes",
            "weighted-kuhn-wattenhofer",
            "kw-connect",
            "guha-khuller",
        } <= names

    def test_unknown_algorithm_names_the_registry(self):
        with pytest.raises(KeyError, match="kuhn-wattenhofer"):
            get_spec("does-not-exist")

    def test_specs_pass_through_get_spec(self):
        spec = get_spec("greedy")
        assert get_spec(spec) is spec

    def test_capability_consistency(self):
        for spec in iter_specs():
            assert spec.backends, spec.name
            assert set(spec.backends) <= {SIMULATED, VECTORIZED, SHARDED}, spec.name
            if spec.accepts_bulk:
                assert spec.supports_backend(VECTORIZED), spec.name
            if spec.supports_backend(SHARDED):
                # Sharded workers run the vectorized kernels on CSR slabs,
                # so sharded capability implies the vectorized backend and
                # native BulkGraph support (enforced by register()).
                assert spec.supports_backend(VECTORIZED), spec.name
                assert spec.accepts_bulk, spec.name
            if spec.supports_trace:
                assert set(spec.trace_backends) <= set(spec.backends), spec.name

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            api.register(get_spec("greedy"))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            api.register(
                AlgorithmSpec(
                    name="bogus",
                    summary="",
                    backends=("quantum",),
                    runner=lambda *a, **k: None,
                    entry_point=len,
                )
            )

    def test_twin_specs_cover_the_ported_stack(self):
        names = {spec.name for spec in twin_specs()}
        assert {
            "kuhn-wattenhofer",
            "weighted-kuhn-wattenhofer",
            "greedy",
            "set-cover-greedy",
            "lrg",
            "wu-li",
            "central-lp",
        } <= names
        # CDS twins gate on their own connected suites.
        assert "kw-connect" not in names


class TestDispatch:
    def test_auto_picks_vectorized_for_small_graphs(self, small_graph):
        report = solve("kuhn-wattenhofer", small_graph, seed=0, k=2)
        assert report.backend == VECTORIZED
        # The simulated engine runs on request.
        report = solve(
            "kuhn-wattenhofer", small_graph, backend=SIMULATED, seed=0, k=2
        )
        assert report.backend == SIMULATED

    def test_auto_picks_vectorized_for_bulk_inputs(self, bulk_graph):
        report = solve("kuhn-wattenhofer", bulk_graph, seed=0, k=2)
        assert report.backend == VECTORIZED

    def test_auto_picks_vectorized_at_every_n(self):
        for n in (1, 50, 512, 600):
            graph = nx.path_graph(n)
            assert resolve_backend("kuhn-wattenhofer", graph) == VECTORIZED
        # End to end, on a cheap spec.
        report = solve("greedy", nx.path_graph(50))
        assert report.backend == VECTORIZED

    def test_auto_never_picks_sharded_by_size(self, monkeypatch):
        # Even on a many-CPU host: only backend="sharded" or shards=N shard.
        from repro.simulator import sharded

        monkeypatch.setattr(sharded, "available_cpu_count", lambda: 8)
        n = 1_000_000
        edgeless = BulkGraph(np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert resolve_backend("kuhn-wattenhofer", edgeless) == VECTORIZED
        assert resolve_backend("kuhn-wattenhofer", nx.empty_graph(200_000)) == VECTORIZED
        assert resolve_backend("kuhn-wattenhofer", edgeless, shards=2) == SHARDED
        assert not hasattr(api, "AUTO_SHARD_THRESHOLD")

    def test_auto_respects_single_backend_specs(self, small_graph):
        # random-fill has no vectorized engine; auto stays simulated at
        # every size.
        for graph in (small_graph, nx.path_graph(600)):
            assert resolve_backend("random-fill", graph) == SIMULATED

    def test_collect_trace_on_simulated_records_events(self, small_graph):
        from repro.simulator.trace import ExecutionTrace

        report = solve(
            "kuhn-wattenhofer",
            small_graph,
            seed=0,
            k=2,
            backend=SIMULATED,
            collect_trace=True,
        )
        assert report.backend == SIMULATED
        assert isinstance(report.raw.fractional.trace, ExecutionTrace)
        assert len(report.raw.fractional.trace) > 0

    def test_collect_trace_on_vectorized_returns_columnar(self, small_graph):
        from repro.simulator.columnar import ColumnarTrace

        report = solve(
            "kuhn-wattenhofer",
            small_graph,
            seed=0,
            k=2,
            backend=VECTORIZED,
            collect_trace=True,
        )
        assert report.backend == VECTORIZED
        trace = report.raw.fractional.trace
        assert isinstance(trace, ColumnarTrace)
        assert len(trace) > 0

    def test_auto_trace_goes_vectorized_at_every_n(self, small_graph):
        from repro.simulator.columnar import ColumnarTrace

        for graph in (small_graph, nx.path_graph(600)):
            report = solve(
                "kuhn-wattenhofer", graph, seed=0, k=2, collect_trace=True
            )
            assert report.backend == VECTORIZED
            assert isinstance(report.raw.fractional.trace, ColumnarTrace)

    def test_collect_trace_on_traceless_spec_rejected(self, small_graph):
        with pytest.raises(CapabilityError, match="greedy"):
            solve("greedy", small_graph, collect_trace=True)

    def test_bulk_input_on_simulated_rejected(self, bulk_graph):
        with pytest.raises(CapabilityError, match="BulkGraph"):
            solve("kuhn-wattenhofer", bulk_graph, backend=SIMULATED)

    def test_bulk_input_on_simulated_only_spec_rejected(self, bulk_graph):
        with pytest.raises(CapabilityError, match="random-fill"):
            solve("random-fill", bulk_graph)

    def test_bulk_input_with_trace_goes_columnar(self, bulk_graph):
        from repro.simulator.columnar import ColumnarTrace

        report = solve("kuhn-wattenhofer", bulk_graph, seed=0, k=2, collect_trace=True)
        assert report.backend == VECTORIZED
        assert isinstance(report.raw.fractional.trace, ColumnarTrace)

    def test_unsupported_backend_rejected(self, small_graph):
        with pytest.raises(CapabilityError, match="vectorized"):
            solve("random-fill", small_graph, backend=VECTORIZED)

    def test_unknown_backend_rejected(self, small_graph):
        with pytest.raises(ValueError, match="auto"):
            solve("greedy", small_graph, backend="warp-drive")

    def test_capability_error_names_everything(self, small_graph):
        with pytest.raises(CapabilityError) as excinfo:
            solve("greedy", small_graph, collect_trace=True)
        message = str(excinfo.value)
        assert "greedy" in message
        assert "collect_trace" in message
        assert "no backend supports it" in message

    def test_capability_error_is_a_value_error(self):
        assert issubclass(CapabilityError, ValueError)


_DISPATCH_SIZES = (2, 64, 511, 512, 2000)


def _sparse_er(n: int, seed: int = 0) -> nx.Graph:
    """networkx G(n, 4/(n-1)): mean degree about 4 at every n."""
    return nx.gnp_random_graph(n, min(1.0, 4 / (n - 1)), seed=seed)


@pytest.fixture(scope="module")
def dispatch_graphs():
    return {n: _sparse_er(n) for n in _DISPATCH_SIZES}


@pytest.fixture(scope="module")
def parity_graph():
    """Connected G(64, 4/63) (largest component) every twin spec accepts."""
    graph = _sparse_er(64, seed=5)
    component = max(nx.connected_components(graph), key=len)
    return nx.convert_node_labels_to_integers(graph.subgraph(component).copy())


def _outcome(report: RunReport) -> tuple:
    return (
        report.dominating_set,
        report.objective,
        report.rounds,
        report.messages,
        report.max_message_bits,
    )


class TestCapabilityDispatch:
    """``auto`` decides from capability alone: no size rule at any n."""

    @pytest.mark.parametrize("n", _DISPATCH_SIZES)
    @pytest.mark.parametrize("name", algorithm_names())
    def test_auto_resolves_vectorized_exactly_when_spec_has_it(
        self, name, n, dispatch_graphs
    ):
        spec = get_spec(name)
        expected = VECTORIZED if spec.supports_backend(VECTORIZED) else SIMULATED
        assert resolve_backend(name, dispatch_graphs[n]) == expected

    @pytest.mark.parametrize(
        "name", [spec.name for spec in twin_specs(exclude_cds=False)]
    )
    def test_auto_matches_simulated_bitwise(self, name, parity_graph):
        auto = solve(name, parity_graph, seed=3)
        simulated = solve(name, parity_graph, backend=SIMULATED, seed=3)
        assert auto.backend == VECTORIZED
        assert _outcome(auto) == _outcome(simulated)

    def test_faulted_auto_matches_simulated_bitwise(self, parity_graph):
        from repro.simulator.fault_schedule import FaultSpec

        faults = FaultSpec(loss_probability=0.2, crash_probability=0.2, seed=5)
        reports = {
            backend: solve(
                "kuhn-wattenhofer",
                parity_graph,
                backend=backend,
                seed=1,
                k=2,
                faults=faults,
                repair=True,
            )
            for backend in (AUTO, SIMULATED)
        }
        assert reports[AUTO].backend == VECTORIZED
        assert _outcome(reports[AUTO]) == _outcome(reports[SIMULATED])
        assert reports[AUTO].repair is not None
        assert reports[AUTO].repair == reports[SIMULATED].repair


class TestRunReport:
    def test_schema(self, small_graph):
        report = solve("kuhn-wattenhofer", small_graph, seed=3, k=2)
        assert isinstance(report, RunReport)
        assert report.algorithm == "kuhn-wattenhofer"
        assert report.backend in (SIMULATED, VECTORIZED)
        assert isinstance(report.dominating_set, frozenset)
        assert report.objective == float(report.size)
        assert report.rounds > 0
        assert report.messages > 0
        assert report.max_message_bits > 0
        assert report.seed == 3
        assert report.params["k"] == 2
        assert report.elapsed_s >= 0.0

    def test_backcompat_accessors(self, small_graph):
        report = solve("kuhn-wattenhofer", small_graph, seed=0, k=2)
        assert report.size == len(report.dominating_set)
        assert report.total_rounds == report.rounds
        assert report.total_messages == report.messages

    def test_as_row_flattens(self, small_graph):
        row = solve("greedy", small_graph).as_row()
        assert row["algorithm"] == "greedy"
        assert row["size"] > 0
        assert row["rounds"] is None

    def test_centralized_specs_report_none_rounds(self, small_graph):
        report = solve("mis", small_graph, seed=0)
        assert report.rounds is None
        assert report.messages is None

    def test_weighted_objective_is_cost(self, small_graph):
        weights = {node: 2.0 for node in small_graph}
        report = solve(
            "weighted-kuhn-wattenhofer", small_graph, seed=0, k=2, weights=weights
        )
        assert report.objective == 2.0 * report.size
        # Unit weights by default: objective == size.
        unit = solve("weighted-kuhn-wattenhofer", small_graph, seed=0, k=2)
        assert unit.objective == float(unit.size)


class TestCapabilitiesHonored:
    """Every declared capability is exercised, not just declared."""

    @pytest.mark.parametrize(
        "name", [spec.name for spec in iter_specs() if spec.accepts_bulk]
    )
    def test_bulk_specs_consume_csr_without_conversion(self, name, monkeypatch):
        bulk = bulk_grid_graph(4, 5)

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError(
                f"{name} converted a BulkGraph through BulkGraph.from_graph"
            )

        monkeypatch.setattr(BulkGraph, "from_graph", forbidden)
        report = solve(name, bulk, seed=0)
        assert report.backend == VECTORIZED
        assert report.size > 0

    @pytest.mark.parametrize(
        "name", [spec.name for spec in iter_specs() if spec.supports_trace]
    )
    def test_trace_specs_produce_events(self, name, small_graph):
        report = solve(
            name, small_graph, backend=SIMULATED, seed=0, k=2, collect_trace=True
        )
        assert report.backend == SIMULATED
        raw = report.raw
        trace = raw.fractional.trace if hasattr(raw, "fractional") else raw.trace
        assert len(trace) > 0

    @pytest.mark.parametrize(
        "name,backend",
        [
            (spec.name, backend)
            for spec in iter_specs()
            for backend in spec.backends
        ],
    )
    def test_every_declared_backend_executes(self, name, backend, small_graph):
        report = solve(name, small_graph, backend=backend, seed=0)
        assert report.backend == backend
        assert report.size > 0


class TestRegistryCompleteness:
    """No drift: CLI and compare_algorithms enumerate the registry."""

    def test_cli_has_no_handwired_algorithm_wrappers(self):
        import repro.cli as cli

        wrappers = [name for name in vars(cli) if name.startswith("_alg_")]
        assert wrappers == []

    def test_cli_algorithm_choices_come_from_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        observed = set()
        for action in parser._subparsers._group_actions[0].choices.values():
            for sub_action in action._actions:
                if "--algorithm" in getattr(sub_action, "option_strings", ()):
                    observed.add(tuple(sub_action.choices))
        # Every sub-command enumerates the registry; ``trace`` narrows to
        # the registry's traceable specs (still registry-derived, no drift).
        traceable = tuple(
            spec.name for spec in iter_specs() if spec.supports_trace
        )
        assert observed == {tuple(algorithm_names()), traceable}

    def test_compare_algorithms_defaults_come_from_registry(self, small_graph):
        from repro.analysis.experiment import as_instances, compare_algorithms

        instances = as_instances({"g": small_graph})
        records = compare_algorithms(instances, trials=1, seed=0)
        observed = {record.algorithm for record in records}
        expected = {spec.name for spec in iter_specs(comparison=True)}
        assert observed == expected

    def test_bulk_comparison_keeps_only_bulk_capable_specs(self):
        from repro.analysis.experiment import as_instances, compare_algorithms

        bulk = bulk_unit_disk_graph(60, radius=0.25, seed=0)
        records = compare_algorithms(
            as_instances({"csr": bulk}), trials=1, seed=0
        )
        observed = {record.algorithm for record in records}
        expected = {
            spec.name
            for spec in iter_specs(backend=VECTORIZED, comparison=True)
            if spec.in_bulk_comparison
        }
        assert observed == expected
        assert "central-lp" not in observed
        assert "random-fill" not in observed

    def test_explicit_bulk_incapable_request_errors(self):
        bulk = bulk_unit_disk_graph(40, radius=0.3, seed=0)
        with pytest.raises(CapabilityError, match="random-fill"):
            comparison_algorithms(bulk=True, names=["random-fill"])

    def test_comparison_callables_are_picklable(self):
        import pickle

        algorithms = comparison_algorithms(overrides={"kuhn-wattenhofer": {"k": 3}})
        for name, algorithm in algorithms.items():
            pickle.dumps(algorithm), name


ENTRY_POINT_SIGNATURES = {
    "kuhn_wattenhofer_dominating_set": [
        "graph", "k", "seed", "variant", "rounding_rule", "collect_trace",
        "backend", "shards", "faults", "repair", "_bulk",
    ],
    "lrg_dominating_set": ["graph", "seed", "max_phases", "backend", "_bulk"],
    "wu_li_dominating_set": [
        "graph", "apply_pruning", "ensure_domination", "seed", "backend", "_bulk",
    ],
    "greedy_dominating_set": ["graph"],
    "central_lp_rounding_dominating_set": [
        "graph", "seed", "rule", "backend", "lp_method", "lp_tol",
    ],
    "random_dominating_set": ["graph", "seed"],
    "weighted_kuhn_wattenhofer_dominating_set": [
        "graph", "weights", "k", "seed", "rounding_rule", "collect_trace",
        "backend", "shards", "_bulk",
    ],
    "approximate_weighted_fractional_mds": [
        "graph", "weights", "k", "seed", "collect_trace", "backend", "shards",
        "_bulk", "_executor",
    ],
}


class TestBackCompat:
    """The classic entry points stay unchanged; solve() matches them bitwise."""

    @pytest.mark.parametrize("name", sorted(ENTRY_POINT_SIGNATURES))
    def test_entry_point_signatures_pinned(self, name):
        import repro
        from repro.baselines.greedy import greedy_dominating_set
        from repro.baselines.jia_rajaraman_suel import lrg_dominating_set
        from repro.baselines.lp_rounding_central import (
            central_lp_rounding_dominating_set,
        )
        from repro.baselines.trivial import random_dominating_set
        from repro.baselines.wu_li import wu_li_dominating_set

        functions = {
            "kuhn_wattenhofer_dominating_set": repro.kuhn_wattenhofer_dominating_set,
            "lrg_dominating_set": lrg_dominating_set,
            "wu_li_dominating_set": wu_li_dominating_set,
            "greedy_dominating_set": greedy_dominating_set,
            "central_lp_rounding_dominating_set": central_lp_rounding_dominating_set,
            "random_dominating_set": random_dominating_set,
            "weighted_kuhn_wattenhofer_dominating_set": (
                repro.weighted_kuhn_wattenhofer_dominating_set
            ),
            "approximate_weighted_fractional_mds": (
                repro.approximate_weighted_fractional_mds
            ),
        }
        parameters = list(inspect.signature(functions[name]).parameters)
        assert parameters == ENTRY_POINT_SIGNATURES[name]

    @pytest.mark.parametrize("backend", [SIMULATED, VECTORIZED])
    def test_solve_matches_pipeline_entry_point_bitwise(self, small_graph, backend):
        import repro

        direct = repro.kuhn_wattenhofer_dominating_set(
            small_graph, k=2, seed=7, backend=backend
        )
        report = solve("kuhn-wattenhofer", small_graph, backend=backend, seed=7, k=2)
        assert report.dominating_set == direct.dominating_set
        assert report.rounds == direct.total_rounds
        assert report.messages == direct.total_messages
        assert report.max_message_bits == direct.max_message_bits
        assert report.raw.fractional.x == direct.fractional.x

    def test_solve_matches_baseline_entry_points(self, small_graph):
        from repro.baselines.greedy import greedy_dominating_set
        from repro.baselines.jia_rajaraman_suel import lrg_dominating_set
        from repro.baselines.trivial import random_dominating_set
        from repro.baselines.wu_li import wu_li_dominating_set

        assert solve("greedy", small_graph).dominating_set == greedy_dominating_set(
            small_graph
        )
        assert (
            solve("lrg", small_graph, backend=SIMULATED, seed=5).dominating_set
            == lrg_dominating_set(small_graph, seed=5).dominating_set
        )
        assert (
            solve("wu-li", small_graph, backend=SIMULATED).dominating_set
            == wu_li_dominating_set(small_graph).dominating_set
        )
        assert solve(
            "random-fill", small_graph, seed=11
        ).dominating_set == random_dominating_set(small_graph, seed=11)

    def test_solve_matches_weighted_entry_point(self, small_graph):
        import repro

        weights = {node: 1.0 + (node % 3) for node in small_graph}
        direct = repro.weighted_kuhn_wattenhofer_dominating_set(
            small_graph, weights, k=2, seed=3
        )
        report = solve(
            "weighted-kuhn-wattenhofer",
            small_graph,
            backend=SIMULATED,
            seed=3,
            k=2,
            weights=weights,
        )
        assert report.dominating_set == direct.dominating_set
        assert report.objective == direct.cost


class TestExplicitBackendComparisons:
    """Regressions: explicit concrete backends on mixed comparison sets."""

    def test_enumerated_comparison_skips_backend_incapable_specs(self):
        algorithms = comparison_algorithms(backend=VECTORIZED)
        assert "kuhn-wattenhofer" in algorithms and "lrg" in algorithms
        # Simulated-only specs are skipped, not raised on.
        assert "mis" not in algorithms
        assert "random-fill" not in algorithms

    def test_named_backend_incapable_spec_raises_up_front(self):
        with pytest.raises(CapabilityError, match="mis"):
            comparison_algorithms(backend=VECTORIZED, names=["mis"])

    def test_unknown_backend_rejected_up_front(self):
        with pytest.raises(ValueError, match="auto"):
            comparison_algorithms(backend="warp-drive")

    def test_compare_with_explicit_vectorized_backend_runs(self, small_graph):
        from repro.analysis.experiment import as_instances, compare_algorithms

        records = compare_algorithms(
            as_instances({"g": small_graph}),
            trials=1,
            seed=0,
            backend=VECTORIZED,
        )
        observed = {record.algorithm for record in records}
        assert "kuhn-wattenhofer" in observed
        assert "mis" not in observed

    def test_unsupported_backend_message_is_not_garbled(self, small_graph):
        with pytest.raises(CapabilityError) as excinfo:
            solve("mis", small_graph, backend=VECTORIZED)
        message = str(excinfo.value)
        assert message.count("vectorized") == 1
        assert "execution" in message
        assert "'simulated'" in message


class TestCliParamDeclarations:
    def test_k_accepting_specs_declare_it(self):
        declared = {
            spec.name for spec in iter_specs() if "k" in spec.cli_params
        }
        assert declared == {
            "kuhn-wattenhofer",
            "weighted-kuhn-wattenhofer",
            "kw-connect",
        }


class TestReviewRegressions:
    def test_capability_error_survives_pickling(self):
        import pickle

        error = CapabilityError("lrg", "collect_trace", "vectorized", ("simulated",))
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert clone.algorithm == "lrg" and clone.supported == ("simulated",)

    def test_capability_error_crosses_process_pool(self):
        from repro.analysis.experiment import as_instances, sweep_fractional

        bulk = [
            bulk_unit_disk_graph(30, radius=0.3, seed=s) for s in (0, 1)
        ]
        instances = as_instances({"a": bulk[0], "b": bulk[1]})
        with pytest.raises(CapabilityError, match="vectorized"):
            sweep_fractional(instances, k_values=[1], backend="simulated", jobs=2)

    def test_falsy_collect_trace_ignored_by_traceless_specs(self, small_graph):
        report = solve("greedy", small_graph, collect_trace=False)
        assert report.size > 0

    def test_requires_connected_enforced(self):
        disconnected = nx.Graph()
        disconnected.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected graph"):
            solve("guha-khuller", disconnected)
        with pytest.raises(ValueError, match="kw-connect"):
            solve("kw-connect", disconnected, k=1, seed=0)

    def test_bulk_named_sim_only_spec_message_is_accurate(self):
        with pytest.raises(CapabilityError) as excinfo:
            comparison_algorithms(bulk=True, names=["mis"])
        message = str(excinfo.value)
        assert "no backend supports it" in message
        # Must not point the user at a backend that cannot help.
        assert "'vectorized'" not in message

    def test_runners_report_resolved_k(self, small_graph):
        # Default k = Θ(log Δ) is surfaced through RunReport.params, so no
        # caller has to introspect algorithm-specific result shapes.
        report = solve("kuhn-wattenhofer", small_graph, seed=0)
        assert report.params["k"] == report.raw.k >= 1
        weighted = solve("weighted-kuhn-wattenhofer", small_graph, seed=0)
        assert weighted.params["k"] == weighted.raw.fractional.k == 2
        connect = solve("kw-connect", small_graph, seed=0)
        assert connect.params["k"] == connect.raw[1].k >= 1

    @pytest.mark.parametrize("backend", [SIMULATED, VECTORIZED, SHARDED])
    @pytest.mark.parametrize("k", [True, 2.5])
    def test_non_integer_k_rejected(self, small_graph, backend, k):
        # k=True used to run as k=1 and k=2.5 died in range() with a raw
        # TypeError; both are now a ValueError naming k on every backend.
        with pytest.raises(ValueError, match="k must be an integer"):
            solve("kuhn-wattenhofer", small_graph, backend=backend, seed=0, k=k)

    @pytest.mark.parametrize("backend", [SIMULATED, VECTORIZED, SHARDED])
    def test_numpy_integer_k_accepted(self, small_graph, backend):
        import numpy as np

        report = solve(
            "kuhn-wattenhofer", small_graph, backend=backend, seed=0, k=np.int64(2)
        )
        expected = solve("kuhn-wattenhofer", small_graph, backend=backend, seed=0, k=2)
        assert report.dominating_set == expected.dominating_set
        assert report.raw.k == 2

    def test_registry_comparisons_skip_redundant_deterministic_trials(
        self, small_graph, monkeypatch
    ):
        from collections import Counter

        from repro.analysis.experiment import as_instances, compare_algorithms

        calls = Counter()
        real = api.run_algorithm

        def counting(graph, seed, algorithm="kuhn-wattenhofer", **kwargs):
            calls[algorithm] += 1
            return real(graph, seed, algorithm=algorithm, **kwargs)

        monkeypatch.setattr(api, "run_algorithm", counting)
        compare_algorithms(
            as_instances({"g": small_graph}),
            algorithms=["greedy", "lrg"],
            trials=3,
            seed=0,
        )
        assert calls["greedy"] == 1  # deterministic: one trial suffices
        assert calls["lrg"] == 3

    def test_vectorized_without_bulk_native_entry_point_is_gated(self):
        # A spec may support the vectorized engine yet not consume CSR
        # inputs natively; dispatch must refuse the BulkGraph rather than
        # hand it to an entry point that needs networkx.
        spec = AlgorithmSpec(
            name="hypothetical",
            summary="",
            backends=(SIMULATED, VECTORIZED),
            runner=lambda *a, **k: None,
            entry_point=len,
            accepts_bulk=False,
        )
        bulk = bulk_grid_graph(3, 3)
        with pytest.raises(CapabilityError, match="BulkGraph"):
            resolve_backend(spec, bulk)

    def test_import_repro_does_not_load_the_registry(self):
        import subprocess
        import sys

        code = (
            "import sys, repro; "
            "assert 'repro.api' not in sys.modules; "
            "repro.solve; "
            "assert 'repro.api' in sys.modules"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestCDSTwins:
    """The CDS twin pairs gated by bench_lp_speedup are auto-enumerated."""

    def test_cds_twins_enumerated(self):
        cds = {
            spec.name
            for spec in twin_specs(exclude_cds=False)
            if spec.produces_cds
        }
        assert {"kw-connect", "guha-khuller"} <= cds

    def test_guha_khuller_backend_twins(self, small_graph):
        import networkx as nx

        component = max(nx.connected_components(small_graph), key=len)
        graph = nx.convert_node_labels_to_integers(
            small_graph.subgraph(component).copy()
        )
        simulated = solve("guha-khuller", graph, backend="simulated", seed=0)
        vectorized = solve("guha-khuller", graph, backend="vectorized", seed=0)
        assert simulated.dominating_set == vectorized.dominating_set
        assert simulated.objective == vectorized.objective


class TestFaultCapability:
    """``faults=`` / ``repair=`` flow through the registry capability."""

    def test_pipeline_declares_fault_support(self):
        assert get_spec("kuhn-wattenhofer").supports_faults
        for name in ("greedy", "lrg", "wu-li", "central-lp"):
            assert not get_spec(name).supports_faults

    def test_faults_on_unsupporting_spec_rejected(self, small_graph):
        from repro.simulator.fault_schedule import FaultSpec

        with pytest.raises(CapabilityError, match="fault injection"):
            solve("greedy", small_graph, faults=FaultSpec(loss_probability=0.1))

    def test_falsy_faults_ignored_by_unsupporting_specs(self, small_graph):
        report = solve("greedy", small_graph, faults=None, repair=True)
        assert report.size > 0

    def test_faulted_solve_surfaces_repair_and_summaries(self, small_graph):
        from repro.simulator.fault_schedule import FaultSpec

        spec = FaultSpec(loss_probability=0.2, crash_probability=0.2, seed=3)
        report = solve("kuhn-wattenhofer", small_graph, k=2, seed=0, faults=spec)
        assert report.repair is not None
        assert report.repair.feasible_after
        assert set(report.fault_summaries) == {"fractional", "rounding"}
        assert report.fault_summaries["fractional"].spec == spec

    def test_faultfree_solve_reports_no_repair(self, small_graph):
        report = solve("kuhn-wattenhofer", small_graph, k=2, seed=0)
        assert report.repair is None
        assert report.fault_summaries == {}

    def test_faulted_solve_backend_parity(self, small_graph):
        from repro.simulator.fault_schedule import FaultSpec

        spec = FaultSpec(loss_probability=0.25, crash_probability=0.25, seed=7)
        reports = {
            backend: solve(
                "kuhn-wattenhofer",
                small_graph,
                k=2,
                seed=1,
                backend=backend,
                faults=spec,
            )
            for backend in (SIMULATED, VECTORIZED)
        }
        assert (
            reports[SIMULATED].dominating_set == reports[VECTORIZED].dominating_set
        )
        assert reports[SIMULATED].repair == reports[VECTORIZED].repair


class TestNormalizedParams:
    """Pinning tests for solve()'s canonical parameter normalization.

    The service layer's content-addressed cache keys hash through
    ``normalized_params``: two spellings of the same request MUST
    normalize identically, and distinct requests must never collapse.
    """

    def test_kwargs_order_is_irrelevant(self):
        first = api.normalized_params(
            "kuhn-wattenhofer", {"k": 2, "variant": "known_delta"}
        )
        second = api.normalized_params(
            "kuhn-wattenhofer", {"variant": "known_delta", "k": 2}
        )
        assert first == second
        assert list(first) == list(second)  # key order is canonical too

    def test_defaults_fill_in(self):
        implicit = api.normalized_params("kuhn-wattenhofer", {"k": 2})
        explicit = api.normalized_params(
            "kuhn-wattenhofer",
            {
                "k": 2,
                "variant": FractionalVariant.UNKNOWN_DELTA,
                "rounding_rule": "log",
                "repair": True,
            },
        )
        assert implicit == explicit

    def test_enum_values_collapse_to_strings(self):
        params = api.normalized_params(
            "kuhn-wattenhofer", {"k": 2, "variant": FractionalVariant.KNOWN_DELTA}
        )
        assert params["variant"] == "known_delta"

    @pytest.mark.parametrize("name", algorithm_names())
    def test_unknown_param_raises_when_strict(self, name, small_graph):
        with pytest.raises(TypeError, match="bogus"):
            api.normalized_params(name, {"bogus": 1})
        # solve() runs the same check once, at the boundary, before any
        # dispatch or work: the error names the algorithm, not a runner.
        with pytest.raises(TypeError, match=f"{name!r}.*'bogus'"):
            solve(name, small_graph, seed=0, bogus=1)

    def test_unknown_param_tolerated_when_lenient(self):
        params = api.normalized_params(
            "kuhn-wattenhofer", {"k": 2, "bogus": 1}, strict=False
        )
        assert "bogus" not in params

    def test_distinct_requests_stay_distinct(self):
        assert api.normalized_params(
            "kuhn-wattenhofer", {"k": 2}
        ) != api.normalized_params("kuhn-wattenhofer", {"k": 3})

    def test_signature_read_once_per_spec(self, monkeypatch):
        def runner(graph, seed, backend, k=1, *, rule="log"):
            return {}

        spec = AlgorithmSpec(
            name="signature-probe",
            summary="",
            backends=(SIMULATED,),
            runner=runner,
            entry_point=runner,
        )
        reads = []
        signature = inspect.signature
        monkeypatch.setattr(
            api.inspect, "signature", lambda func: reads.append(func) or signature(func)
        )
        for params in ({}, {"k": 2}, {"rule": "max", "k": 3}):
            assert api.normalized_params(spec, params)["k"] == params.get("k", 1)
        with pytest.raises(TypeError, match="'bogus'; accepted: k, rule$"):
            api.normalized_params(spec, {"bogus": 1})
        assert api.normalized_params(spec, {"bogus": 1}, strict=False) == {
            "k": 1,
            "rule": "log",
        }
        assert reads == [runner]

    def test_runner_context_excluded(self):
        params = api.normalized_params("kuhn-wattenhofer", {"k": 2})
        for context in ("graph", "seed", "backend"):
            assert context not in params

    def test_report_params_match_across_spellings(self, small_graph):
        """solve() reports identical params for equivalent invocations."""
        implicit = solve("kuhn-wattenhofer", small_graph, seed=0, k=2)
        explicit = solve(
            "kuhn-wattenhofer",
            small_graph,
            seed=0,
            k=2,
            variant=FractionalVariant.UNKNOWN_DELTA,
            rounding_rule="log",
        )
        assert implicit.params == explicit.params
        assert list(implicit.params) == list(explicit.params)

    def test_canonical_param_value_shapes(self):
        assert api.canonical_param_value(FractionalVariant.KNOWN_DELTA) == (
            "known_delta"
        )
        assert api.canonical_param_value([1, 2]) == (1, 2)
        assert api.canonical_param_value({"b": 1, "a": 2}) == {"a": 2, "b": 1}


class TestInputValidation:
    """Every registered algorithm rejects the same malformed graphs."""

    @pytest.mark.parametrize("name", algorithm_names())
    @pytest.mark.parametrize("kind", ["empty", "self-loop"])
    def test_rejects_empty_and_self_loop_graphs(self, name, kind):
        graph = nx.Graph()
        if kind == "self-loop":
            graph.add_edges_from([(0, 1), (1, 2), (0, 0)])
        with pytest.raises(ValueError):
            solve(name, graph)
