#!/usr/bin/env python3
"""Quickstart: compute a dominating set through the ``repro.api`` façade.

This example builds a small random network and runs the full distributed
Kuhn–Wattenhofer pipeline (Algorithm 3 for the fractional relaxation,
Algorithm 1 for the randomized rounding) through the unified entry point::

    report = solve("kuhn-wattenhofer", graph, k=3, seed=7)

``solve`` accepts any registered algorithm name (``algorithm_names()``
lists them) and ``backend="auto"`` by default: the vectorized bulk
engine wherever the algorithm has it, the message-passing simulator on
request (``backend="simulated"``) -- same results either way.  Every
run comes back as one normalised ``RunReport`` (set, objective, backend
used, rounds, messages, wall-clock).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import os

from repro.api import algorithm_names, solve
from repro.baselines.exact import SearchBudgetExceeded, exact_minimum_dominating_set
from repro.domset.quality import quality_report
from repro.graphs.generators import erdos_renyi_graph

#: Smoke-test knob (CI): shrink the instance so the example runs in <1 s.
QUICK = bool(int(os.environ.get("REPRO_EXAMPLES_QUICK", "0")))
NODES = 30 if QUICK else 60


def main() -> None:
    # 1. Build a network graph.  Any undirected networkx graph works.
    graph = erdos_renyi_graph(n=NODES, p=0.08, seed=42)
    print(f"graph: n = {graph.number_of_nodes()}, m = {graph.number_of_edges()}, "
          f"Δ = {max(d for _, d in graph.degree())}")
    print(f"registered algorithms: {', '.join(algorithm_names())}")

    # 2. Run the distributed pipeline through the façade.  k controls the
    #    time/quality trade-off: O(k²) rounds for a O(k·Δ^{2/k}·log Δ)
    #    expected ratio.  backend="auto" (the default) picks the engine.
    report = solve("kuhn-wattenhofer", graph, k=3, seed=7)
    print(f"\nKuhn-Wattenhofer pipeline (k = {report.params['k']}):")
    print(f"  backend selected    : {report.backend}")
    print(f"  dominating set size : {report.size}")
    print(f"  synchronous rounds  : {report.total_rounds}")
    print(f"  messages sent       : {report.total_messages}")
    print(f"  largest message     : {report.max_message_bits} bits")
    print(f"  wall-clock          : {report.elapsed_s * 1000:.1f} ms")

    # 3. Judge the quality against the strongest available lower bounds.
    #    The exact optimum is only tractable on small graphs; fall back to
    #    the LP optimum if the branch-and-bound budget runs out.
    try:
        exact_size = exact_minimum_dominating_set(graph).size
    except SearchBudgetExceeded:
        exact_size = None
    quality = quality_report(graph, report.dominating_set, exact_optimum=exact_size)
    print("\nquality report:")
    print(f"  valid dominating set: {quality.is_dominating}")
    print(f"  exact optimum       : {quality.exact_optimum}")
    print(f"  LP optimum          : {quality.lp_optimum:.3f}")
    if quality.ratio_vs_exact is not None:
        print(f"  ratio vs exact      : {quality.ratio_vs_exact:.3f}")
    print(f"  ratio vs LP         : {quality.ratio_vs_lp:.3f}")

    # 4. Any registered baseline runs through the same façade -- here the
    #    sequential greedy (ln Δ approximation).
    greedy = solve("greedy", graph)
    print(f"\nsequential greedy size: {greedy.size} -- better quality, "
          "but requires global sequential access to the graph")

    print("\nselected cluster heads:", sorted(report.dominating_set))


if __name__ == "__main__":
    main()
