"""Experiment E7 (Abstract / Sect. 1): message complexity and message size.

Claims: every node sends O(k²Δ) messages and all messages have size
O(log Δ) bits.

The benchmark fixes n and sweeps Δ (via bounded-degree random graphs) and
k, reporting the maximum per-node message count against the explicit
(rounds × Δ) bound and the maximum message payload in bits against the
O(log Δ) accounting bound.  Every row also runs on the vectorized backend,
whose modeled accounting must equal the simulated messages exactly
(``metrics_match``).
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import message_size_bound_bits, messages_per_node_bound
from repro.analysis.tables import render_table
from repro.core.fractional_unknown import approximate_fractional_mds_unknown_delta
from repro.core.kuhn_wattenhofer import kuhn_wattenhofer_dominating_set
from repro.graphs.generators import bounded_degree_graph
from repro.graphs.utils import max_degree

N = 120
DEGREE_TARGETS = [4, 8, 16, 24]
K_VALUES = [1, 2, 3]


def _accounting(metrics) -> tuple:
    """Rounds, message and bit totals, the largest message, per-node dicts."""
    return (
        metrics.round_count,
        metrics.total_messages,
        metrics.total_bits,
        metrics.max_message_bits,
        dict(metrics.messages_per_node),
        dict(metrics.bits_per_node),
    )


@pytest.mark.benchmark(group="E7-messages")
def test_e7_message_complexity(benchmark, bench_seed, emit_table):
    """Regenerate the E7 table: per-node messages and message size vs. Δ and k."""
    rows = []
    for degree_target in DEGREE_TARGETS:
        graph = bounded_degree_graph(
            N, max_degree=degree_target, edge_probability=0.9, seed=bench_seed
        )
        delta = max_degree(graph)
        for k in K_VALUES:
            result = kuhn_wattenhofer_dominating_set(graph, k=k, seed=bench_seed)
            vectorized = kuhn_wattenhofer_dominating_set(
                graph, k=k, seed=bench_seed, backend="vectorized"
            )
            fractional_metrics = result.fractional.metrics
            rows.append(
                {
                    "n": N,
                    "delta": delta,
                    "k": k,
                    "max_msgs_per_node": fractional_metrics.max_messages_per_node,
                    "bound_O(k^2*Δ)": messages_per_node_bound(k, delta),
                    "max_message_bits": result.max_message_bits,
                    "bound_O(logΔ)_bits": message_size_bound_bits(delta),
                    "total_messages": result.total_messages,
                    "rounds": result.total_rounds,
                    "metrics_match": all(
                        _accounting(getattr(result, phase).metrics)
                        == _accounting(getattr(vectorized, phase).metrics)
                        for phase in ("fractional", "rounding")
                    ),
                }
            )

    emit_table(
        "E7_messages",
        render_table(
            rows,
            title="E7: message complexity O(k²Δ) per node, message size O(log Δ)",
        ),
    )

    for row in rows:
        assert row["metrics_match"], row
        assert row["max_msgs_per_node"] <= row["bound_O(k^2*Δ)"]
        assert row["max_message_bits"] <= row["bound_O(logΔ)_bits"]

    # Shape: for fixed k, per-node messages grow (roughly linearly) with Δ.
    for k in K_VALUES:
        per_k = [row for row in rows if row["k"] == k]
        assert per_k[-1]["max_msgs_per_node"] >= per_k[0]["max_msgs_per_node"]

    graph = bounded_degree_graph(N, max_degree=8, edge_probability=0.9, seed=bench_seed)
    benchmark(
        lambda: approximate_fractional_mds_unknown_delta(graph, k=2, seed=bench_seed)
    )
