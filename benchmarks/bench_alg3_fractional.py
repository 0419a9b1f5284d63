"""Experiment E2 (Theorem 5): Algorithm 3 quality, rounds, and the Δ-knowledge ablation.

Claim: Algorithm 3 (Δ unknown) computes a feasible LP_MDS solution with
Σx ≤ k((Δ+1)^{1/k} + (Δ+1)^{2/k}) · LP_OPT in 4k² + O(k) rounds.

Ablation (DESIGN.md "Δ known vs. unknown"): on the same graphs, Algorithm 3
pays roughly a 2× round overhead compared to Algorithm 2 while its measured
quality stays within the (slightly weaker) Theorem-5 bound.

Every phase of Algorithm 3 starts from closed-neighbourhood maxima
(δ⁽¹⁾/δ⁽²⁾, a⁽¹⁾, γ⁽¹⁾/γ⁽²⁾).  ``test_closed_max_pulls`` times one δ⁽¹⁾
pull on ER graphs with mean degree 10 at n = 2·10⁵ and 2·10⁴, as the
radix-encoded neighbour sum small integer payloads take and as the
take/reduceat pass larger ones take, and checks that both give the same
maxima (median of CLOSED_MAX_CALLS calls each;
``BENCH_closed_max_pull.json``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.bounds import (
    algorithm3_approximation_bound,
    algorithm3_round_bound,
)
from repro.analysis.experiment import as_instances, sweep_fractional
from repro.analysis.tables import render_table
from repro.core.fractional_unknown import approximate_fractional_mds_unknown_delta
from repro.core.kuhn_wattenhofer import FractionalVariant
from repro.graphs.bulk import bulk_erdos_renyi_graph
from repro.graphs.generators import graph_suite

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
#: Sizes of the closed_max pull comparison (ER, mean degree 10).
CLOSED_MAX_SIZES = (200_000, 20_000)
CLOSED_MAX_CALLS = 5 if QUICK else 31


@pytest.mark.benchmark(group="E2-alg3")
def test_e2_algorithm3_quality_sweep(benchmark, bench_seed, emit_table):
    """Regenerate the E2 table: Algorithm 3 ratio / bound / rounds per (graph, k)."""
    instances = as_instances(graph_suite("small", seed=bench_seed))
    k_values = [1, 2, 3, 4, 5]

    alg3_records = sweep_fractional(
        instances, k_values, variant=FractionalVariant.UNKNOWN_DELTA, seed=bench_seed
    )
    alg2_records = sweep_fractional(
        instances, k_values, variant=FractionalVariant.KNOWN_DELTA, seed=bench_seed
    )

    rows = []
    for alg3, alg2 in zip(alg3_records, alg2_records):
        row = alg3.as_row()
        row["alg2_ratio"] = alg2.measurements["ratio"]
        row["alg2_rounds"] = alg2.measurements["rounds"]
        rows.append(row)

    emit_table(
        "E2_alg3_fractional",
        render_table(
            rows,
            columns=[
                "instance", "n", "delta", "k", "ratio", "bound", "rounds",
                "alg2_ratio", "alg2_rounds", "max_messages_per_node",
            ],
            title="E2 (Theorem 5): Algorithm 3 vs Algorithm 2 (Δ-knowledge ablation)",
        ),
    )

    for record in alg3_records:
        k = record.parameters["k"]
        delta = record.parameters["delta"]
        assert record.measurements["ratio"] <= (
            algorithm3_approximation_bound(k, delta) + 1e-9
        )
        assert record.measurements["rounds"] <= algorithm3_round_bound(k)

    # Ablation shape: Algorithm 3 never uses fewer rounds than Algorithm 2.
    for alg3, alg2 in zip(alg3_records, alg2_records):
        assert alg3.measurements["rounds"] >= alg2.measurements["rounds"]

    graph = instances[0].graph
    benchmark(
        lambda: approximate_fractional_mds_unknown_delta(graph, k=3, seed=bench_seed)
    )


def _median_call_ms(function) -> float:
    times = []
    for _ in range(CLOSED_MAX_CALLS):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return round(1e3 * float(np.median(times)), 3)


@pytest.mark.benchmark(group="E2-alg3")
def test_closed_max_pulls(bench_seed, emit_table, emit_json):
    """One δ⁽¹⁾ pull: radix-encoded neighbour sum vs. the take/reduceat pass."""
    rows = []
    for n in CLOSED_MAX_SIZES:
        bulk = bulk_erdos_renyi_graph(n, 10 / (n - 1), seed=bench_seed)
        degrees = bulk.degrees
        # Shifted past every radix-encodable value (≤ 1022 / b), the same
        # int64 payload takes the take/reduceat pass; the shift commutes
        # with the maximum.
        shifted = degrees + 1022
        radix = bulk.closed_max(degrees)
        reduceat = bulk.closed_max(shifted)
        rows.append(
            {
                "n": n,
                "delta": bulk.max_degree,
                "radix_ms": _median_call_ms(lambda: bulk.closed_max(degrees)),
                "reduceat_ms": _median_call_ms(lambda: bulk.closed_max(shifted)),
                "set_match": bool(np.array_equal(radix + 1022, reduceat)),
            }
        )
    emit_table(
        "E2_closed_max_pull",
        render_table(
            rows,
            title=(
                f"closed_max δ⁽¹⁾ pull, median of {CLOSED_MAX_CALLS} "
                f"({'quick' if QUICK else 'full'} mode)"
            ),
        ),
    )
    emit_json("closed_max_pull", {"quick": QUICK, "calls": CLOSED_MAX_CALLS, "rows": rows})
    for row in rows:
        assert row["set_match"], f"radix and reduceat maxima differ at n={row['n']}"
