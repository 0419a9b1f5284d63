#!/usr/bin/env python3
"""Columnar observability: trace a 20 000-node run and audit the lemmas.

The simulator's event-by-event ``ExecutionTrace`` is perfect for small
graphs, but at n ≥ 20 000 nobody runs the per-node simulator -- the
vectorized engine does the work, and until recently asking it for a
trace raised a ``CapabilityError``.  Now ``collect_trace=True`` works on
both backends: the vectorized engine records a columnar
``ColumnarTrace`` (flat NumPy arrays, one snapshot per bulk step) whose
recording overhead stays within 2× of the untraced run.

This example traces Algorithm 2 on a CSR-native ``BulkGraph`` straight
from the xlarge suite, then turns the trace into the two artefacts the
observability layer exists for:

1. ``repro.analysis.trace_report`` -- per-phase (ell) distributions of
   dynamic degrees, active counts, colour coverage and x-mass.
2. ``repro.core.invariants`` -- the paper's Lemma 2-7 runtime monitors,
   running their columnar implementations directly on the arrays.

Run with:  python examples/trace_observability.py
"""

from __future__ import annotations

import os

from repro.analysis.trace_report import trace_report
from repro.api import solve
from repro.core.invariants import check_algorithm2_invariants
from repro.graphs.generators import graph_suite

#: Smoke-test knob (CI): trade the 20 000-node instance for a 250-node one.
QUICK = bool(int(os.environ.get("REPRO_EXAMPLES_QUICK", "0")))
SCALE = "medium" if QUICK else "xlarge"
INSTANCE = "erdos_renyi_n250" if QUICK else "erdos_renyi_n20000"
K = 2
SEED = 2003


def main() -> None:
    graph = graph_suite(SCALE, seed=SEED)[INSTANCE]
    n = graph.n if hasattr(graph, "n") else graph.number_of_nodes()
    print(f"instance: {INSTANCE} (n = {n})")

    # backend="auto" sees a trace request and restricts dispatch to the
    # backends the algorithm can trace on; that means the vectorized
    # engine and a columnar trace, at any size.
    report = solve("kuhn-wattenhofer", graph, k=K, seed=SEED, collect_trace=True)
    fractional = report.raw.fractional
    trace = fractional.trace
    print(
        f"backend: {report.backend}, trace: {type(trace).__name__} "
        f"({len(trace)} events), |DS| = {report.size}"
    )

    # Per-phase observability: what each of the k(k+1) phases contributed.
    print()
    print(trace_report(trace, fractional.metrics).render())

    # The paper's lemmas, checked against the recorded run -- the columnar
    # checkers judge the array snapshots directly, no event loop involved.
    invariants = check_algorithm2_invariants(graph, trace, K)
    verdict = "OK" if invariants.ok else "VIOLATED"
    print(
        f"\nLemma 2-5 monitors: {invariants.checked} checks, {verdict}"
        + (f" ({len(invariants.violations)} violations)" if not invariants.ok else "")
    )


if __name__ == "__main__":
    main()
