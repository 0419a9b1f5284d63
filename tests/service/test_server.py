"""Integration tests for the SolveService facade."""

import asyncio
import dataclasses
import gc
import weakref
from collections.abc import Mapping

import networkx as nx
import numpy as np
import pytest

from repro.api import solve
from repro.graphs.bulk import bulk_grid_graph
from repro.graphs.generators import erdos_renyi_graph
from repro.service import ServiceClosedError, SolveService
from repro.simulator.columnar import ColumnarTrace
from repro.simulator.fault_schedule import FaultSpec
from repro.simulator.trace import ExecutionTrace


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(28, 0.18, seed=2)


class TestSolve:
    def test_matches_direct_solve(self, graph):
        async def run():
            async with SolveService() as service:
                return await service.solve("kuhn-wattenhofer", graph, seed=1, k=2)

        report = asyncio.run(run())
        direct = solve("kuhn-wattenhofer", graph, seed=1, k=2)
        assert report.dominating_set == direct.dominating_set
        assert report.objective == direct.objective
        assert report.rounds == direct.rounds

    def test_repeat_served_from_cache(self, graph):
        async def run():
            async with SolveService() as service:
                first = await service.solve("kuhn-wattenhofer", graph, seed=1, k=2)
                second = await service.solve("kuhn-wattenhofer", graph, seed=1, k=2)
                return first, second, service.stats()

        first, second, stats = asyncio.run(run())
        assert second is first  # the literal cached object
        assert stats["cache"]["hits"] == 1
        assert stats["scheduler"]["engine_executions"] == 1

    def test_equivalent_spellings_share_cache_entries(self, graph):
        async def run():
            async with SolveService() as service:
                await service.solve("kuhn-wattenhofer", graph, seed=1, k=2)
                await service.solve(
                    "kuhn-wattenhofer",
                    graph,
                    seed=1,
                    k=2,
                    variant="unknown_delta",  # the default, spelled out
                )
                return service.stats()

        stats = asyncio.run(run())
        assert stats["cache"]["hits"] == 1

    def test_concurrent_identical_requests_join_in_flight(self, graph):
        async def run():
            async with SolveService() as service:
                reports = await service.solve_many(
                    [
                        {
                            "algorithm": "kuhn-wattenhofer",
                            "graph": graph,
                            "seed": 1,
                            "params": {"k": 2},
                        }
                    ]
                    * 3
                )
                return reports, service.stats()

        reports, stats = asyncio.run(run())
        assert stats["inflight_joins"] == 2
        assert stats["scheduler"]["engine_executions"] == 1
        assert len({id(report) for report in reports}) == 1

    def test_multi_k_burst_coalesces_and_matches(self, graph):
        async def run():
            async with SolveService() as service:
                reports = await service.solve_many(
                    [
                        {
                            "algorithm": "kuhn-wattenhofer",
                            "graph": graph,
                            "seed": 4,
                            "params": {"k": k},
                        }
                        for k in (1, 2, 3)
                    ]
                )
                return reports, service.stats()

        reports, stats = asyncio.run(run())
        assert stats["scheduler"]["coalesced_requests"] == 3
        assert stats["scheduler"]["engine_executions"] == 1
        for k, report in zip((1, 2, 3), reports):
            direct = solve("kuhn-wattenhofer", graph, seed=4, k=k)
            assert report.dominating_set == direct.dominating_set
            assert report.objective == direct.objective

    def test_fault_scenario_passthrough(self, graph):
        faults = FaultSpec(loss_probability=0.1, crash_probability=0.05, seed=3)

        async def run():
            async with SolveService() as service:
                return await service.solve(
                    "kuhn-wattenhofer",
                    graph,
                    seed=1,
                    k=2,
                    faults=faults,
                    repair=True,
                )

        report = asyncio.run(run())
        direct = solve(
            "kuhn-wattenhofer", graph, seed=1, k=2, faults=faults, repair=True
        )
        assert report.dominating_set == direct.dominating_set
        assert report.objective == direct.objective

    def test_faulty_and_clean_runs_never_share_entries(self, graph):
        async def run():
            async with SolveService() as service:
                clean = await service.solve("kuhn-wattenhofer", graph, seed=1, k=2)
                faulty = await service.solve(
                    "kuhn-wattenhofer",
                    graph,
                    seed=1,
                    k=2,
                    faults=FaultSpec(loss_probability=0.3, seed=0),
                    repair=True,
                )
                return clean, faulty, service.stats()

        clean, faulty, stats = asyncio.run(run())
        assert stats["cache"]["hits"] == 0
        assert stats["cache"]["entries"] == 2

    def test_error_propagates_and_is_not_cached(self, graph):
        async def run():
            async with SolveService() as service:
                with pytest.raises(ValueError):
                    await service.solve("kuhn-wattenhofer", graph, k=0)
                stats = service.stats()
                return stats

        stats = asyncio.run(run())
        assert stats["failed"] == 1
        assert stats["cache"]["entries"] == 0

    def test_unknown_algorithm_rejected_at_submission(self, graph):
        async def run():
            async with SolveService() as service:
                with pytest.raises(KeyError):
                    await service.solve("no-such-algorithm", graph)

        asyncio.run(run())


class TestTimeouts:
    def test_timeout_raises_but_result_still_cached(self, graph):
        async def run():
            async with SolveService() as service:
                with pytest.raises(asyncio.TimeoutError):
                    await service.solve(
                        "kuhn-wattenhofer", graph, seed=9, k=2, timeout=1e-9
                    )
                await service.drain()
                stats = service.stats()
                # The computation outlived the impatient waiter: a repeat
                # of the same request is now a cache hit.
                report = await service.solve("kuhn-wattenhofer", graph, seed=9, k=2)
                return stats, report, service.stats()

        stats, report, final_stats = asyncio.run(run())
        assert stats["timeouts"] == 1
        assert final_stats["cache"]["hits"] == 1
        direct = solve("kuhn-wattenhofer", graph, seed=9, k=2)
        assert report.dominating_set == direct.dominating_set


class TestLifecycle:
    def test_solve_after_close_rejected(self, graph):
        async def run():
            service = SolveService()
            await service.start()
            await service.close()
            with pytest.raises(ServiceClosedError):
                await service.solve("kuhn-wattenhofer", graph, k=1)

        asyncio.run(run())

    def test_close_drains_submitted_work(self, graph):
        async def run():
            service = SolveService()
            await service.start()
            outcome = await service._begin(
                "kuhn-wattenhofer", graph, "auto", 1, {"k": 2}
            )
            await service.close()
            _, request, _ = outcome
            return request.future.done() and not request.future.cancelled()

        assert asyncio.run(run())

    def test_stats_shape_when_idle(self):
        async def run():
            async with SolveService() as service:
                return service.stats()

        stats = asyncio.run(run())
        assert stats["requests"] == 0
        assert stats["latency"]["count"] == 0
        assert stats["latency"]["p99_s"] is None
        assert stats["cache"]["hit_rate"] == 0.0
        assert stats["scheduler"]["coalescing_factor"] == 1.0


def assert_same_value(served, direct, path: str) -> None:
    """Field-by-field equality of two result objects.

    Trace objects are compared by type only: each run records its own.
    """
    if isinstance(served, (ExecutionTrace, ColumnarTrace)):
        assert type(served) is type(direct), path
    elif dataclasses.is_dataclass(served):
        assert type(served) is type(direct), path
        for field in dataclasses.fields(served):
            assert_same_value(
                getattr(served, field.name),
                getattr(direct, field.name),
                f"{path}.{field.name}",
            )
    elif isinstance(served, np.ndarray):
        assert served.dtype == direct.dtype, path
        assert np.array_equal(served, direct), path
    elif isinstance(served, Mapping):
        assert dict(served.items()) == dict(direct.items()), path
    else:
        assert served == direct, path


def assert_same_report(served, direct) -> None:
    for name in (
        "algorithm",
        "backend",
        "dominating_set",
        "objective",
        "rounds",
        "messages",
        "max_message_bits",
        "params",
        "seed",
    ):
        assert getattr(served, name) == getattr(direct, name), name
    assert_same_value(served.raw, direct.raw, "raw")


FAULTS = FaultSpec(loss_probability=0.1, crash_probability=0.05, seed=3)

#: One solo, four coalescible, one faulted + repaired request.
MIXED = [
    {"seed": 1, "params": {"k": 2}},
    *({"seed": 4, "params": {"k": k}} for k in (1, 2, 3, 4)),
    {"seed": 5, "params": {"k": 2, "faults": FAULTS, "repair": True}},
]


def _serve(graph, requests, **kwargs):
    async def run():
        async with SolveService() as service:
            reports = await service.solve_many(
                [
                    {"algorithm": "kuhn-wattenhofer", "graph": graph, **request}
                    for request in requests
                ],
                **kwargs,
            )
            return reports, service.stats()

    return asyncio.run(run())


class TestOneCsrPerGraph:
    """The service checks and converts each networkx graph object once."""

    def test_requests_on_one_graph_build_one_csr(self, conversions):
        graph = erdos_renyi_graph(60, 0.08, seed=9)
        reports, stats = _serve(graph, MIXED + MIXED)
        assert stats["scheduler"]["coalesced_requests"] == 4
        assert stats["cache"]["hits"] + stats["inflight_joins"] == len(MIXED)
        assert all(report.backend == "vectorized" for report in reports)
        assert conversions == {"validate": 1, "from_graph": 1}

    def test_reports_equal_direct_solve(self, graph):
        reports, stats = _serve(graph, MIXED)
        assert stats["scheduler"]["coalesced_batches"] == 1
        for request, report in zip(MIXED, reports):
            direct = solve(
                "kuhn-wattenhofer", graph, seed=request["seed"], **request["params"]
            )
            assert_same_report(report, direct)

    def test_simulated_requests_run_the_submitted_graph(self, graph):
        requests = [{"seed": 2, "backend": "simulated", "params": {"k": 2}}]
        (report,), _ = _serve(graph, requests)
        direct = solve("kuhn-wattenhofer", graph, backend="simulated", seed=2, k=2)
        assert_same_report(report, direct)

    @pytest.mark.parametrize("requests", [MIXED[:1], MIXED[1:5], MIXED[5:]])
    def test_digraph_rejected_on_every_path(self, graph, requests):
        reports, stats = _serve(
            nx.DiGraph(graph), requests, return_exceptions=True
        )
        for report in reports:
            assert isinstance(report, ValueError)
            assert str(report) == "graph must be undirected"
        assert stats["cache"]["entries"] == 0

    def test_digraph_never_served_its_twins_result(self, graph):
        async def run():
            async with SolveService() as service:
                await service.solve("kuhn-wattenhofer", graph, seed=1, k=2)
                with pytest.raises(ValueError, match="graph must be undirected"):
                    await service.solve(
                        "kuhn-wattenhofer", nx.DiGraph(graph), seed=1, k=2
                    )

        asyncio.run(run())

    def test_memo_does_not_pin_its_graphs(self):
        # The CSR kept for a networkx graph does not refer to it, and a
        # BulkGraph keeps only its digest: neither outlives its caller.
        async def run(graph):
            async with SolveService() as service:
                await service.solve("kuhn-wattenhofer", graph, seed=1, k=2)
                return service

        for build in (
            lambda: erdos_renyi_graph(40, 0.1, seed=3),
            lambda: bulk_grid_graph(5, 6),
        ):
            graph = build()
            alive = weakref.ref(graph)
            service = asyncio.run(run(graph))
            del graph
            gc.collect()
            assert alive() is None
            assert len(service._graph_hashes) == 0

    def test_self_loops_rejected_at_submission(self, graph):
        looped = nx.Graph(graph)
        looped.add_edge(0, 0)
        for requests in (MIXED[:1], MIXED[1:5], MIXED[5:]):
            with pytest.raises(ValueError, match="must not contain self loops"):
                _serve(looped, requests)

    def test_self_loops_fail_through_their_requests(self, graph):
        looped = nx.Graph(graph)
        looped.add_edge(0, 0)
        reports, stats = _serve(looped, MIXED, return_exceptions=True)
        for report in reports:
            assert isinstance(report, ValueError)
            assert str(report) == "graph must not contain self loops"
        assert stats["failed"] == len(MIXED)
        assert stats["cache"]["entries"] == 0
