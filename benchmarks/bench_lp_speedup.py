"""LP certification at scale, plus the CDS and pruning twins, gated.

Every LP build, solve, feasibility check and duality bound runs on the one
CSR formulation (:func:`~repro.lp.formulation.build_lp`).  This benchmark
gates:

* **n ≥ 20 000** -- the weighted-solve entry point plus a full duality
  certificate on CSR-native xlarge instances, where an n × n constraint
  matrix alone would take ≥ 3 GB.  Always reported with
  ``objective_match`` pinned by the CSR feasibility check.
* **CDS twins** -- every registered algorithm pair that *both* engines
  implement and that produces a connected dominating set
  (``twin_specs(exclude_cds=False)``: currently kw-connect and the
  bucket-queue guha-khuller) runs under each backend on connected
  instances and is gated on set identity.  Newly registered CDS twins
  join automatically; the non-CDS twins (incl. the fully vectorized
  Wu–Li core) stay gated by ``bench_baseline_backends``.
* **prune_redundant twins** -- the set-based and CSR pruners must return
  bitwise-identical sets on every instance/candidate pair.

Quick mode (``REPRO_BENCH_QUICK=1``, CI smoke) substitutes smaller
instances; the identity / objective checks always gate.  Results are
persisted as ``BENCH_lp_speedup.json``; the CI gate fails on any
``"objective_match": false`` in the payload and on any registered CDS
twin missing from its ``algorithms`` list.
"""

from __future__ import annotations

import os
import time

import networkx as nx
import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.api import solve, twin_specs
from repro.graphs.generators import caterpillar_graph, graph_suite
from repro.lp.duality import lemma1_dual_solution, weak_duality_gap
from repro.lp.feasibility import check_dual_feasible
from repro.lp.solver import solve_weighted_fractional_mds
from repro.simulator.bulk import BulkGraph

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
#: Per-CDS-twin parameter overrides.
CDS_PARAMS = {"kw-connect": {"k": 2}}


def _timed(function):
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def _prune_instances() -> list[tuple[str, nx.Graph]]:
    """(name, graph) rows for the prune_redundant twins."""
    if QUICK:
        suite = graph_suite("medium", seed=2003)
        return [
            ("caterpillar_250x3", caterpillar_graph(250, 3)),
            ("erdos_renyi_n250", suite["erdos_renyi_n250"]),
        ]
    suite = graph_suite("large", seed=2003)
    return [
        ("caterpillar_1000x3", caterpillar_graph(1000, 3)),
        ("caterpillar_2000x3", caterpillar_graph(2000, 3)),
        ("erdos_renyi_n2000", suite["erdos_renyi_n2000"]),
    ]


def _largest_component(graph: nx.Graph) -> nx.Graph:
    component = max(nx.connected_components(graph), key=len)
    return nx.convert_node_labels_to_integers(graph.subgraph(component).copy())


@pytest.mark.benchmark(group="lp-speedup")
def test_lp_certification_and_twins(benchmark, bench_seed, emit_table, emit_json):
    """CSR LP certification at n >= 20000, CDS & prune twins."""
    # ---------------------------------------------------------------- #
    # 1. Certification at n >= 20000                                    #
    # ---------------------------------------------------------------- #
    xlarge_rows = []
    xlarge_names = ["caterpillar_5000x3"] if QUICK else [
        "caterpillar_5000x3",
        "unit_disk_n20000",
    ]
    xlarge_suite = graph_suite("xlarge", seed=bench_seed)
    for name in xlarge_names:
        bulk = xlarge_suite[name]
        solution, solve_s = _timed(
            lambda: solve_weighted_fractional_mds(bulk, weights=None)
        )

        def _certify():
            lp = solution.lp
            y = lemma1_dual_solution(bulk)
            assert check_dual_feasible(lp, y, tolerance=1e-9)
            return weak_duality_gap(lp, solution.values, y)

        gap, certify_s = _timed(_certify)
        # The solver already verified primal feasibility on the CSR; a
        # finite non-negative certified gap pins the chain.
        xlarge_rows.append(
            {
                "instance": name,
                "n": bulk.n,
                "lp_optimum": round(solution.objective, 3),
                "weak_duality_gap": round(gap, 3),
                "objective_match": bool(np.isfinite(gap) and gap >= 0.0),
                "solve_s": round(solve_s, 3),
                "certify_s": round(certify_s, 4),
            }
        )

    # ---------------------------------------------------------------- #
    # 2. CDS twins (auto-enumerated from the registry)                  #
    # ---------------------------------------------------------------- #
    cds_specs = [
        spec for spec in twin_specs(exclude_cds=False) if spec.produces_cds
    ]
    assert cds_specs, "registry lost its CDS backend twins"
    cds_scale = "small" if QUICK else "medium"
    cds_suite = {
        name: _largest_component(graph)
        for name, graph in sorted(graph_suite(cds_scale, seed=bench_seed).items())
    }
    if not QUICK:
        cds_suite["erdos_renyi_n2000"] = _largest_component(
            graph_suite("large", seed=bench_seed)["erdos_renyi_n2000"]
        )
    cds_rows = []
    for name, graph in cds_suite.items():
        for spec in cds_specs:
            params = CDS_PARAMS.get(spec.name, {})
            simulated, simulated_s = _timed(
                lambda: solve(
                    spec, graph, backend="simulated", seed=bench_seed, **params
                )
            )
            bulk_report, bulk_s = _timed(
                lambda: solve(
                    spec, graph, backend="vectorized", seed=bench_seed, **params
                )
            )
            match = (
                simulated.dominating_set == bulk_report.dominating_set
                and simulated.objective == bulk_report.objective
            )
            cds_rows.append(
                {
                    "instance": name,
                    "algorithm": spec.name,
                    "n": graph.number_of_nodes(),
                    "size": bulk_report.size,
                    "objective_match": bool(match),
                    "reference_s": round(simulated_s, 3),
                    "bulk_s": round(bulk_s, 4),
                    "speedup": round(simulated_s / bulk_s, 1) if bulk_s > 0 else float("inf"),
                }
            )

    # ---------------------------------------------------------------- #
    # 3. prune_redundant twins                                          #
    # ---------------------------------------------------------------- #
    from repro.baselines.greedy import greedy_dominating_set
    from repro.domset.validation import prune_redundant, prune_redundant_bulk

    prune_rows = []
    for name, graph in _prune_instances():
        bulk = BulkGraph.from_graph(graph)
        greedy = greedy_dominating_set(graph)
        for candidate_name, candidate in (
            ("all-nodes", set(graph.nodes())),
            ("greedy+slack", set(greedy) | set(sorted(graph.nodes())[: len(greedy)])),
        ):
            reference, reference_s = _timed(
                lambda: prune_redundant(graph, candidate)
            )
            pruned, bulk_s = _timed(lambda: prune_redundant_bulk(bulk, candidate))
            prune_rows.append(
                {
                    "instance": name,
                    "candidate": candidate_name,
                    "n": graph.number_of_nodes(),
                    "pruned_size": len(pruned),
                    "objective_match": bool(reference == pruned),
                    "reference_s": round(reference_s, 3),
                    "bulk_s": round(bulk_s, 4),
                    "speedup": round(reference_s / bulk_s, 1) if bulk_s > 0 else float("inf"),
                }
            )

    # ---------------------------------------------------------------- #
    # Emit + gate                                                       #
    # ---------------------------------------------------------------- #
    mode = "quick" if QUICK else "full"
    emit_table(
        "lp_speedup",
        "\n\n".join(
            [
                render_table(xlarge_rows, title=f"CSR certification, n >= 20000 ({mode})"),
                render_table(cds_rows, title="CDS twins: simulated vs. bulk (CSR)"),
                render_table(prune_rows, title="prune_redundant: set-based vs. CSR"),
            ]
        ),
    )
    emit_json(
        "lp_speedup",
        {
            "quick": QUICK,
            "algorithms": [spec.name for spec in cds_specs],
            "xlarge": xlarge_rows,
            "cds_twins": cds_rows,
            "prune": prune_rows,
        },
    )

    for row in xlarge_rows + cds_rows + prune_rows:
        assert row["objective_match"], f"output mismatch: {row}"

    small_bulk = BulkGraph.from_graph(_prune_instances()[0][1])
    benchmark(lambda: solve_weighted_fractional_mds(small_bulk, weights=None))
