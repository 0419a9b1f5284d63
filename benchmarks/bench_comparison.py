"""Experiment E10 (Sect. 1-2): comparison against the paper's reference algorithms.

Claims being reproduced, qualitatively:

* the greedy algorithm (ln Δ) produces the smallest sets but is inherently
  sequential;
* Jia–Rajaraman–Suel (LRG) matches greedy's quality up to constants but
  needs O(log n log Δ) rounds;
* Kuhn–Wattenhofer with constant k needs only O(k²) rounds at the cost of a
  k·Δ^{O(1/k)}·log Δ ratio -- the trade-off the paper introduces;
* Wu–Li and the trivial baselines are fast but have no non-trivial ratio.

The comparator set is not hand-listed: both tables enumerate the
:mod:`repro.api` registry (every spec marked for comparison, plus the
trivial all-nodes upper bound), so a newly registered algorithm joins the
E10 tables automatically.  The benchmark runs all algorithms on the same
suite and prints size, ratio and round count side by side.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.stats import mean
from repro.analysis.tables import render_table
from repro.api import get_spec, iter_specs, solve
from repro.baselines.exact import exact_minimum_dominating_set
from repro.core.vectorized import SIMULATED, VECTORIZED
from repro.domset.validation import is_dominating_set
from repro.graphs.generators import graph_suite

TRIALS = 3
K = 2
#: Per-algorithm parameters for the comparison tables.
PARAMS = {"kuhn-wattenhofer": {"k": K}}


def _comparison_reports(graph, spec, seed, backend):
    """The per-trial RunReports of one spec (one for deterministic specs)."""
    trials = 1 if spec.deterministic else TRIALS
    params = PARAMS.get(spec.name, {})
    return [
        solve(spec, graph, backend=backend, seed=seed + trial, **params)
        for trial in range(trials)
    ]


@pytest.mark.benchmark(group="E10-comparison")
def test_e10_algorithm_comparison(benchmark, bench_seed, emit_table):
    """Regenerate the E10 table: every registered algorithm, tiny suite."""
    suite = graph_suite("tiny", seed=bench_seed)
    specs = list(iter_specs(backend=SIMULATED, comparison=True))
    specs.append(get_spec("all-nodes"))

    rows = []
    aggregate = {}
    for name, graph in suite.items():
        optimum = exact_minimum_dominating_set(graph).size
        for spec in specs:
            reports = _comparison_reports(graph, spec, bench_seed, SIMULATED)
            for report in reports:
                assert is_dominating_set(graph, report.dominating_set), spec.name
            sizes = [report.size for report in reports]
            rows.append(
                {
                    "instance": name,
                    "algorithm": spec.name,
                    "mean_size": mean(sizes),
                    "optimum": optimum,
                    "mean_ratio": mean(sizes) / optimum,
                    "rounds": reports[0].rounds,
                }
            )
            aggregate.setdefault(spec.name, []).append(mean(sizes) / optimum)

    emit_table(
        "E10_comparison",
        render_table(
            rows,
            title="E10: algorithm comparison (ratio vs exact optimum, tiny suite)",
        ),
    )

    mean_ratio = {algorithm: mean(values) for algorithm, values in aggregate.items()}
    # Shape assertions (who wins):
    # greedy and the central LP pipeline are the best polynomial heuristics;
    assert mean_ratio["greedy"] <= mean_ratio["kuhn-wattenhofer"] + 1e-9
    # the distributed pipeline beats the trivial all-nodes baseline;
    assert mean_ratio["kuhn-wattenhofer"] < mean_ratio["all-nodes"]
    # and LRG (more rounds) is at least as good as KW with constant k.
    assert mean_ratio["lrg"] <= mean_ratio["kuhn-wattenhofer"] + 0.25

    graph = suite["unit_disk_n20"]
    benchmark(lambda: solve("greedy", graph, backend=SIMULATED))


QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
SCALE_N = 2000 if QUICK else 20000
SCALE_RADIUS = 0.04 if QUICK else 0.012


@pytest.mark.benchmark(group="E10-comparison")
def test_e10_comparison_at_scale(benchmark, bench_seed, emit_table):
    """The paper's head-to-head at CSR scale: every bulk comparator at n ≥ 20000.

    Before the bulk ports of the comparison stack, this table was capped at
    the per-node simulator's ~n = 2000; now every registry spec that opts
    into bulk comparisons runs on one CSR build.  Ratios are measured
    against the Lemma-1 dual bound (the LP optimum denominator is the one
    quantity not computed at this scale).
    """
    from repro.graphs.bulk import bulk_unit_disk_graph
    from repro.lp.duality import lemma1_lower_bound

    bulk = bulk_unit_disk_graph(SCALE_N, radius=SCALE_RADIUS, seed=bench_seed)
    dual_bound = lemma1_lower_bound(bulk)
    specs = list(
        iter_specs(backend=VECTORIZED, comparison=True, bulk_comparison=True)
    )

    rows = []
    sizes = {}
    for spec in specs:
        params = PARAMS.get(spec.name, {})
        report = solve(spec, bulk, backend=VECTORIZED, seed=bench_seed, **params)
        assert is_dominating_set(bulk, report.dominating_set), spec.name
        sizes[spec.name] = report.size
        rows.append(
            {
                "algorithm": spec.name,
                "n": bulk.n,
                "size": report.size,
                "ratio_vs_dual": report.size / dual_bound,
                "rounds": report.rounds,
            }
        )

    emit_table(
        "E10_comparison_at_scale",
        render_table(
            rows,
            title=(
                f"E10 (at scale): comparison on a CSR unit disk graph, "
                f"n = {SCALE_N} ({'quick' if QUICK else 'full'} mode)"
            ),
        ),
    )

    # Shape assertions at scale mirror the tiny-suite claims: the two
    # greedy references coincide and win, LRG tracks greedy within a small
    # factor, and KW with constant k pays a bounded quality premium for its
    # constant round count but still beats the trivial all-nodes baseline.
    assert sizes["greedy"] == sizes["set-cover-greedy"]
    assert sizes["lrg"] <= 2.0 * sizes["greedy"]
    assert sizes["kuhn-wattenhofer"] < bulk.n

    # Theorem 6 bounds E[|DS|] / LP_OPT -- the dual bound is not a valid
    # denominator for that comparison (the duality gap can be large), so
    # the ratio gate solves LP_MDS on the CSR for the true denominator.
    # Full mode only: the n = 20000 solve costs ~25 s.
    if not QUICK:
        from repro.analysis.bounds import pipeline_expected_ratio_bound
        from repro.lp.solver import solve_fractional_mds

        lp_optimum = solve_fractional_mds(bulk).objective
        measured = sizes["kuhn-wattenhofer"] / lp_optimum
        # 30% margin: the assert draws one sample of an expectation bound.
        assert measured <= 1.3 * pipeline_expected_ratio_bound(
            K, bulk.max_degree
        )

    benchmark(lambda: solve("lrg", bulk, backend=VECTORIZED, seed=bench_seed))
