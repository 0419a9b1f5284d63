"""Scaling features of the experiment runner: jobs=N and CSR instances.

The process pool must be a pure wall-clock optimisation (identical records
in identical order), the pipeline sweep must match the old per-trial
pipeline semantics exactly, and bulk (CSR) instances must sweep with the
vectorized backend while skipping the centralized LP columns.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future

import pytest

import repro.analysis.experiment as experiment
from repro.analysis.experiment import (
    as_instances,
    compare_algorithms,
    sweep_cds,
    sweep_faults,
    sweep_fractional,
    sweep_pipeline,
    sweep_tradeoff,
)
from repro.baselines.bulk_greedy import greedy_dominating_set_bulk
from repro.core.kuhn_wattenhofer import (
    FractionalVariant,
    kuhn_wattenhofer_dominating_set,
)
from repro.graphs.bulk import bulk_graph_suite, bulk_unit_disk_graph
from repro.graphs.generators import graph_suite


@pytest.fixture(scope="module")
def instances():
    suite = graph_suite("tiny", seed=2)
    selected = {name: suite[name] for name in ("star_12", "grid_4x5", "path_15")}
    return as_instances(selected)


def _greedy_algorithm(graph, seed):
    # Module-level (picklable) algorithm for process-pool comparison runs.
    return greedy_dominating_set_bulk(graph)


class TestProcessPool:
    def test_sweep_fractional_jobs_identical(self, instances):
        serial = sweep_fractional(instances, k_values=[1, 2])
        pooled = sweep_fractional(instances, k_values=[1, 2], jobs=3)
        assert [r.as_row() for r in serial] == [r.as_row() for r in pooled]

    def test_sweep_pipeline_jobs_identical(self, instances):
        serial = sweep_pipeline(instances, k_values=[2], trials=3, seed=1)
        pooled = sweep_pipeline(instances, k_values=[2], trials=3, seed=1, jobs=2)
        assert [r.as_row() for r in serial] == [r.as_row() for r in pooled]

    def test_compare_algorithms_jobs_identical(self, instances):
        algorithms = {"greedy": _greedy_algorithm}
        serial = compare_algorithms(instances, algorithms, trials=2)
        pooled = compare_algorithms(instances, algorithms, trials=2, jobs=2)
        assert [r.as_row() for r in serial] == [r.as_row() for r in pooled]

    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda i: sweep_fractional(i, k_values=[1], jobs=0), "jobs"),
            (lambda i: sweep_fractional(i, k_values=[0]), "k must be at least 1"),
            (lambda i: sweep_fractional(i, k_values=[]), "k_values"),
            (lambda i: sweep_fractional(i, k_values=[1, 2.5]), "integer"),
            (lambda i: sweep_pipeline(i, k_values=[1], trials=0), "trials"),
            (lambda i: sweep_pipeline(i, k_values=[True]), "integer"),
            (lambda i: sweep_tradeoff(i, k_values=[1], jobs=0), "jobs"),
            (lambda i: sweep_tradeoff(i, k_values=[-1]), "k must be at least 1"),
            (lambda i: sweep_faults(i, k=0), "k must be at least 1"),
            (lambda i: sweep_faults(i, trials=0), "trials"),
            (lambda i: sweep_cds(i, k=0), "k must be at least 1"),
            (lambda i: sweep_cds(i, jobs=0), "jobs"),
            (lambda i: compare_algorithms(i, trials=0), "trials"),
            (lambda i: compare_algorithms(i, jobs=0), "jobs"),
        ],
        ids=[
            "fractional-jobs0",
            "fractional-k0",
            "fractional-no-k",
            "fractional-k2.5",
            "pipeline-trials0",
            "pipeline-k-bool",
            "tradeoff-jobs0",
            "tradeoff-k-negative",
            "faults-k0",
            "faults-trials0",
            "cds-k0",
            "cds-jobs0",
            "compare-trials0",
            "compare-jobs0",
        ],
    )
    def test_inputs_rejected_before_any_work(
        self, instances, monkeypatch, run, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("invalid inputs reached an LP solve or engine")

        monkeypatch.setattr(experiment, "solve_fractional_mds", no_work)
        monkeypatch.setattr(experiment, "_map_instances", no_work)
        with pytest.raises(ValueError, match=message):
            run(instances)


class _RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its width."""

    widths: list = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return future


class TestPoolSizing:
    @pytest.fixture
    def one_usable_cpu(self, monkeypatch):
        # Eight CPUs on the host, but the affinity mask allows only one.
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", _RecordingPool)
        _RecordingPool.widths = []
        return _RecordingPool.widths

    def test_pool_width_honours_cpu_affinity(self, instances, one_usable_cpu):
        pooled = sweep_fractional(instances, k_values=[1], jobs=3)
        assert one_usable_cpu == [1]
        serial = sweep_fractional(instances, k_values=[1])
        assert [r.as_row() for r in serial] == [r.as_row() for r in pooled]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_names_the_instance(self, monkeypatch, one_usable_cpu, jobs):
        csr = bulk_unit_disk_graph(60, radius=0.2, seed=0)
        failing = as_instances({"first_ok": csr, "second_bad": csr})

        def fail_on_second(instance):
            if instance.name == "second_bad":
                raise ValueError("boom")
            return []

        with pytest.raises(ValueError, match="'second_bad': boom"):
            experiment._map_instances(fail_on_second, failing, jobs)
        assert one_usable_cpu == ([1] if jobs > 1 else [])


class TestHoistedPipelineSweep:
    def test_matches_per_trial_pipeline_runs(self, instances):
        """The hoisted fractional phase changes nothing about the records."""
        trials, seed = 4, 5
        for variant in FractionalVariant:
            records = sweep_pipeline(
                instances[:1], k_values=[2], trials=trials, seed=seed, variant=variant
            )
            sizes = [
                float(
                    kuhn_wattenhofer_dominating_set(
                        instances[0].graph, k=2, seed=seed + trial, variant=variant
                    ).size
                )
                for trial in range(trials)
            ]
            assert records[0].measurements["mean_size"] == sum(sizes) / trials

    def test_backends_produce_identical_sweeps(self, instances):
        simulated = sweep_pipeline(instances, k_values=[2], trials=3, seed=0)
        vectorized = sweep_pipeline(
            instances, k_values=[2], trials=3, seed=0, backend="vectorized"
        )
        assert [r.as_row() for r in simulated] == [r.as_row() for r in vectorized]


class TestBulkInstances:
    @pytest.fixture(scope="class")
    def bulk_instances(self):
        return as_instances(
            {"unit_disk_csr": bulk_unit_disk_graph(300, radius=0.1, seed=0)}
        )

    def test_fractional_sweep_skips_lp(self, bulk_instances):
        records = sweep_fractional(
            bulk_instances, k_values=[1, 2], backend="vectorized"
        )
        assert len(records) == 2
        for record in records:
            assert math.isnan(record.measurements["lp_optimum"])
            assert record.measurements["objective"] > 0

    def test_pipeline_sweep_runs(self, bulk_instances):
        records = sweep_pipeline(
            bulk_instances, k_values=[2], trials=3, backend="vectorized"
        )
        assert records[0].measurements["mean_size"] > 0
        # The Lemma-1 dual bound is cheap on the CSR, so bulk instances get
        # the real value (only the dense LP reference column is skipped).
        assert records[0].measurements["dual_lower_bound"] > 0
        assert (
            records[0].measurements["mean_size"]
            >= records[0].measurements["dual_lower_bound"]
        )

    def test_bulk_matches_networkx_instance(self, bulk_instances):
        bulk_records = sweep_fractional(
            bulk_instances, k_values=[2], backend="vectorized"
        )
        nx_instances = as_instances(
            {"unit_disk_csr": bulk_instances[0].graph.to_networkx()}
        )
        nx_records = sweep_fractional(nx_instances, k_values=[2], backend="vectorized")
        assert (
            bulk_records[0].measurements["objective"]
            == nx_records[0].measurements["objective"]
        )
        assert (
            bulk_records[0].measurements["rounds"]
            == nx_records[0].measurements["rounds"]
        )

    def test_simulated_backend_rejected(self, bulk_instances):
        # An *explicit* simulated request on a CSR instance is the
        # impossible combination; the default backend="auto" resolves it.
        with pytest.raises(ValueError, match="vectorized"):
            sweep_fractional(bulk_instances, k_values=[1], backend="simulated")

    def test_auto_backend_resolves_bulk_instances(self, bulk_instances):
        auto = sweep_fractional(bulk_instances, k_values=[1])
        explicit = sweep_fractional(bulk_instances, k_values=[1], backend="vectorized")
        for auto_record, explicit_record in zip(auto, explicit):
            assert auto_record.measurements["objective"] == (
                explicit_record.measurements["objective"]
            )
            assert auto_record.measurements["rounds"] == (
                explicit_record.measurements["rounds"]
            )
            # The dense LP reference stays skipped on CSR instances.
            assert math.isnan(auto_record.measurements["lp_optimum"])

    def test_instance_properties(self):
        suite = bulk_graph_suite("large", seed=0)
        instance = as_instances(suite)[0]
        assert instance.is_bulk
        assert instance.node_count == instance.graph.n
        assert instance.max_degree == instance.graph.max_degree
