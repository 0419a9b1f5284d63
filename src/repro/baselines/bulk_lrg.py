"""Vectorized (bulk-synchronous) Jia–Rajaraman–Suel LRG.

The reference implementation in :mod:`repro.baselines.jia_rajaraman_suel`
drives one generator program per node through the message-passing simulator:
six broadcast exchanges per phase, O(log n · log Δ) phases w.h.p.  That is
the right fidelity for trace-level experiments but caps the paper's
comparison benchmarks at a few thousand nodes.

This module re-executes the *same algorithm* as whole-graph array
operations over a CSR :class:`~repro.simulator.bulk.BulkGraph`, one numpy
pass per phase.  Equivalence with the simulator is engineered, not
approximate:

* every per-phase quantity (spans, distance-2 span maxima, candidate
  flags, candidate-cover counts, median supports) is computed from the
  same state the node programs hold, with the distance-2 maxima masked to
  still-running senders exactly as terminated programs stop broadcasting;
* each candidate draws its joining coin as ``u(key, i, c)``
  (:mod:`repro.simulator.coins`) for its position ``i`` and its own draw
  count ``c`` -- the stream :class:`~repro.simulator.network.Network`
  hands that node -- and a node's draws happen in the same phases, so the
  two backends flip identical coins and select identical dominating sets;
* per-phase termination follows the program's local rule (covered, and
  every neighbour covered at phase start), which makes the phase counts,
  the modeled round layout and the per-node message totals match the
  simulated execution exactly.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.bulk import (
    BOOL_PAYLOAD_BITS,
    BulkGraph,
    BulkMetricsBuilder,
    int_payload_bits,
)
from repro.simulator.coins import coin_key, u


def _next_power_of_two_array(values: np.ndarray) -> np.ndarray:
    """Vectorized ``_next_power_of_two``: 1 for values ≤ 1, else 2^⌈log₂ v⌉.

    ``numpy.frexp`` on ``value - 1`` yields the exact bit length for
    integers below 2⁵³, mirroring ``(value - 1).bit_length()``.
    """
    values = np.asarray(values, dtype=np.int64)
    _, exponent = np.frexp(np.maximum(values - 1, 0).astype(np.float64))
    return np.where(values <= 1, 1, np.int64(1) << exponent)


def _segment_medians(
    rows: np.ndarray, values: np.ndarray, segment_count: int
) -> np.ndarray:
    """Median of ``values`` per segment, matching Python median semantics.

    Every segment must be non-empty.  Odd-length segments return the middle
    element; even-length segments return the mean of the two middle
    elements -- the same value ``statistics.median`` (and the reference's
    ``_median_support``) produces, so the derived join probabilities are
    bitwise identical.
    """
    order = np.lexsort((values, rows))
    sorted_values = values[order].astype(np.float64)
    counts = np.bincount(rows, minlength=segment_count)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    middle = starts + counts // 2
    odd = counts % 2 == 1
    medians = sorted_values[middle].copy()
    even = ~odd
    medians[even] = (sorted_values[middle[even] - 1] + sorted_values[middle[even]]) / 2
    return medians


def run_lrg_bulk(
    bulk: BulkGraph, seed: int | None, max_phases: int
) -> tuple[np.ndarray, int, "ExecutionMetrics"]:
    """Execute LRG on a CSR graph; returns (in_set flags, phases, metrics).

    Parameters
    ----------
    bulk:
        The communication graph.
    seed:
        Experiment seed; the candidate at position ``i`` draws its
        ``c``-th phase coin as ``u(coin_key(seed), i, c)``, the
        simulator-identical stream.
    max_phases:
        Hard phase cap; uncovered nodes join directly when it is reached.
    """
    if max_phases < 1:
        raise ValueError("max_phases must be at least 1")
    n = bulk.n
    in_set = np.zeros(n, dtype=bool)
    covered = np.zeros(n, dtype=bool)
    running = np.ones(n, dtype=bool)
    phases_executed = np.zeros(n, dtype=np.int64)
    metrics = BulkMetricsBuilder(bulk.degrees)
    # Per-node draw counters: only candidates advance their stream,
    # exactly like the per-node program.
    key = coin_key(seed)
    draws_made = np.zeros(n, dtype=np.int64)

    phases = 0
    while running.any() and phases < max_phases:
        phases += 1
        phases_executed[running] = phases

        # Step 1a: exchange coverage; spans over start-of-phase coverage.
        # Terminated neighbours send nothing and are read as "covered",
        # which is their true state, so the full state array is exact.
        metrics.record_exchange(BOOL_PAYLOAD_BITS, senders=running)
        uncovered = ~covered
        uncovered_neighbor_count = bulk.neighbor_count(uncovered)
        span = uncovered_neighbor_count + uncovered

        # Steps 1b/1c: distance-2 span maximum.  Terminated nodes stop
        # broadcasting, so their (stale-looking but well-defined) values
        # must not contribute -- mask the maxima to running senders.
        metrics.record_exchange(int_payload_bits(span), senders=running)
        max_span_1 = bulk.closed_max(span, senders=running)
        metrics.record_exchange(int_payload_bits(max_span_1), senders=running)
        max_span_2 = bulk.closed_max(max_span_1, senders=running)

        # Step 2: candidates are the "locally greedy" nodes.
        is_candidate = (
            (span > 0) & ~in_set & (_next_power_of_two_array(span) >= max_span_2)
        )

        # Step 3: uncovered nodes count the candidates covering them.
        metrics.record_exchange(BOOL_PAYLOAD_BITS, senders=running)
        candidate_cover = bulk.neighbor_count(is_candidate) + is_candidate
        own_count = np.where(uncovered, candidate_cover, 0).astype(np.int64)
        metrics.record_exchange(int_payload_bits(own_count), senders=running)

        # Step 4: each candidate joins with probability 1 / median support,
        # the median taken over the positive counts of the uncovered nodes
        # in its closed neighbourhood.  Every uncovered node adjacent to a
        # candidate has a positive count (the candidate itself covers it),
        # so the support multiset is exactly {own_count[u] : u ∈ N[v],
        # u uncovered} -- non-empty for every candidate (span > 0).
        candidates = np.flatnonzero(is_candidate)
        joined_now = np.zeros(n, dtype=bool)
        if candidates.size:
            degrees = bulk.degrees[candidates]
            segment = np.concatenate(
                [
                    np.repeat(np.arange(candidates.size, dtype=np.int64), degrees),
                    np.arange(candidates.size, dtype=np.int64),
                ]
            )
            starts = bulk.indptr[candidates]
            offsets = np.concatenate(([0], np.cumsum(degrees)))
            flat = np.arange(int(degrees.sum()), dtype=np.int64)
            block = np.repeat(np.arange(candidates.size, dtype=np.int64), degrees)
            neighbor_entries = bulk.col[starts[block] + flat - offsets[block]]
            members = np.concatenate([neighbor_entries, candidates])
            keep = uncovered[members]
            medians = _segment_medians(
                segment[keep], own_count[members][keep], candidates.size
            )
            probability = np.minimum(1.0, 1.0 / np.maximum(medians, 1.0))
            draws = u(key, candidates, draws_made[candidates])
            draws_made[candidates] += 1
            joined_now[candidates] = draws < probability
        in_set |= joined_now

        # Step 5: update coverage; apply the local termination rule (self
        # covered and every neighbour covered at phase start).
        metrics.record_exchange(BOOL_PAYLOAD_BITS, senders=running)
        covered = covered | in_set | bulk.neighbor_any(in_set)
        running &= ~(covered & (uncovered_neighbor_count == 0))

    # Backstop: any still-uncovered node joins directly.
    in_set = in_set | ~covered
    return in_set, int(phases_executed.max(initial=0)), metrics.build(bulk.nodes)
