"""Runtime verification of the paper's loop invariants (Lemmas 2-7).

The approximation proofs of Theorems 4 and 5 rest on per-iteration
invariants:

* **Lemma 2 / Lemma 5** -- at the beginning of outer-loop iteration ℓ, every
  node's dynamic degree satisfies δ̃(v_i) ≤ (Δ+1)^{(ℓ+1)/k}.
* **Lemma 3 / Lemma 6** -- at the beginning of each inner-loop iteration,
  the number of active nodes in any closed neighbourhood satisfies
  a(v_i) ≤ (Δ+1)^{(m+1)/k}.
* **Lemma 4** -- (Algorithm 2) at the end of each outer-loop iteration,
  the redistributed dual weights satisfy z_i ≤ (Δ+1)^{-(ℓ-1)/k}.
* **Lemma 7** -- (Algorithm 3) at the end of each outer-loop iteration,
  z_i ≤ (1 + (Δ+1)^{1/k}) / γ⁽¹⁾(v_i)^{ℓ/(ℓ+1)}.

The distributed algorithms do not need to compute the z-values -- they are
an artifact of the analysis -- so the checkers here reconstruct them
centrally from an execution trace: whenever a node raises its x-value, the
increase is split equally among the z-values of the *white* nodes in its
closed neighbourhood (exactly the bookkeeping used in the proofs).

These checkers serve two purposes: they are exercised by property-based
tests on random graphs (experiment E6), and they double as debugging aids
when modifying the algorithms.

Two implementations of every check
----------------------------------

Each lemma has an *event-based* checker (dictionaries over
:class:`~repro.simulator.trace.ExecutionTrace` events -- readable,
reference semantics) and a *columnar* twin (closed-form array reductions
over a :class:`~repro.simulator.columnar.ColumnarTrace` -- O(rounds · n)
and usable at n ≥ 20 000 on traces the vectorized backends record).  The
public ``check_*`` entry points dispatch on the trace type, so
``check_algorithm2_invariants(graph, result.trace, k)`` works for either
backend's trace.

The columnar checkers are engineered to return **bitwise-identical
verdicts** to the event-based ones on the same trace: scalar bounds are
evaluated with Python ``float.__pow__`` (per distinct operand, via the
vectorized backend's power cache), active counts are exact integers either
way, and the Lemma 4/7 z-value reconstruction accumulates each node's
shares in the event checker's exact floating-point order through
:meth:`~repro.simulator.bulk.BulkGraph.closed_chain_sum` (ascending-sender
chains with the running z as the leading term).  Equal ``checked`` counts,
equal violation sets -- not merely equal up to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx
import numpy as np

from repro.core.fractional import WHITE
from repro.core.vectorized import _unique_powers_cached
from repro.graphs.utils import closed_neighborhood, max_degree
from repro.simulator.bulk import BulkGraph
from repro.simulator.columnar import ColumnarTrace
from repro.simulator.trace import ExecutionTrace

#: Numerical slack applied to every invariant comparison.  The invariants
#: are exact in rational arithmetic; floating-point exponentiation introduces
#: errors on the order of 1e-12 which must not produce spurious violations.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class InvariantViolation:
    """One violated invariant instance."""

    lemma: str
    node_id: Hashable
    ell: int
    m: int | None
    observed: float
    bound: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        location = f"ell={self.ell}" + (f", m={self.m}" if self.m is not None else "")
        return (
            f"{self.lemma} violated at node {self.node_id} ({location}): "
            f"observed {self.observed:.6g} > bound {self.bound:.6g}"
        )


@dataclass
class InvariantReport:
    """Aggregated verdict of an invariant-checking pass."""

    checked: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every checked invariant held."""
        return not self.violations

    def merge(self, other: "InvariantReport") -> "InvariantReport":
        """Combine two reports (used to aggregate per-lemma results)."""
        return InvariantReport(
            checked=self.checked + other.checked,
            violations=[*self.violations, *other.violations],
        )


# --------------------------------------------------------------------------- #
# Trace helpers                                                                 #
# --------------------------------------------------------------------------- #


def _inner_loop_events(trace: ExecutionTrace) -> dict[tuple[int, int], dict[Hashable, dict]]:
    """Group ``inner-loop`` events by (ell, m) then node id."""
    grouped: dict[tuple[int, int], dict[Hashable, dict]] = {}
    for event in trace.events(kind="inner-loop"):
        key = (event.data["ell"], event.data["m"])
        grouped.setdefault(key, {})[event.node_id] = dict(event.data)
    return grouped


def _outer_start_events(trace: ExecutionTrace) -> dict[int, dict[Hashable, dict]]:
    """Group ``outer-loop-start`` events by ell then node id."""
    grouped: dict[int, dict[Hashable, dict]] = {}
    for event in trace.events(kind="outer-loop-start"):
        grouped.setdefault(event.data["ell"], {})[event.node_id] = dict(event.data)
    return grouped


def _reconstruct_z_values(
    graph: nx.Graph,
    trace: ExecutionTrace,
    k: int,
) -> dict[int, dict[Hashable, float]]:
    """Reconstruct the analysis-only z-values per outer-loop iteration.

    Returns a mapping ``ell -> {node: z_value at the end of iteration ell}``.
    The z-values are reset to zero at the start of every outer-loop
    iteration, exactly as in the proofs of Lemmas 4 and 7.
    """
    inner = _inner_loop_events(trace)
    previous_x: dict[Hashable, float] = {node: 0.0 for node in graph.nodes()}
    z_per_ell: dict[int, dict[Hashable, float]] = {}

    for ell in range(k - 1, -1, -1):
        z_values = {node: 0.0 for node in graph.nodes()}
        for m in range(k - 1, -1, -1):
            events = inner.get((ell, m), {})
            # Determine which nodes are white *before* this iteration's
            # x-increases: the colour recorded in the event is the node's
            # colour at the start of the iteration.
            white_nodes = {
                node
                for node, data in events.items()
                if data.get("color") == WHITE
            }
            for node, data in events.items():
                new_x = float(data["x"])
                increase = new_x - previous_x.get(node, 0.0)
                if increase > TOLERANCE:
                    recipients = [
                        neighbor
                        for neighbor in closed_neighborhood(graph, node)
                        if neighbor in white_nodes
                    ]
                    if recipients:
                        share = increase / len(recipients)
                        for neighbor in recipients:
                            z_values[neighbor] += share
                previous_x[node] = new_x
        z_per_ell[ell] = z_values
    return z_per_ell


# --------------------------------------------------------------------------- #
# Lemma 2 / Lemma 5: dynamic-degree invariant at outer-loop start              #
# --------------------------------------------------------------------------- #


def check_dynamic_degree_invariant(
    graph: nx.Graph,
    trace: ExecutionTrace | ColumnarTrace,
    k: int,
    lemma: str = "Lemma 2",
) -> InvariantReport:
    """Check δ̃(v_i) ≤ (Δ+1)^{(ℓ+1)/k} at the start of every outer iteration."""
    if isinstance(trace, ColumnarTrace):
        return check_dynamic_degree_invariant_columnar(graph, trace, k, lemma=lemma)
    delta = max_degree(graph)
    base = delta + 1.0
    report = InvariantReport()
    for ell, events in _outer_start_events(trace).items():
        bound = base ** ((ell + 1) / k)
        for node, data in events.items():
            report.checked += 1
            observed = float(data["dynamic_degree"])
            if observed > bound + TOLERANCE:
                report.violations.append(
                    InvariantViolation(
                        lemma=lemma,
                        node_id=node,
                        ell=ell,
                        m=None,
                        observed=observed,
                        bound=bound,
                    )
                )
    return report


# --------------------------------------------------------------------------- #
# Lemma 3 / Lemma 6: active-count invariant inside the inner loop              #
# --------------------------------------------------------------------------- #


def check_active_count_invariant(
    graph: nx.Graph,
    trace: ExecutionTrace | ColumnarTrace,
    k: int,
    lemma: str = "Lemma 3",
) -> InvariantReport:
    """Check a(v_i) ≤ (Δ+1)^{(m+1)/k} at the start of every inner iteration.

    For Algorithm 2 traces the active count a(v_i) is reconstructed from the
    per-node ``active`` flags (the algorithm itself never computes it); for
    Algorithm 3 traces the recorded ``a_value`` is used directly when
    present, so the check also validates the value the algorithm actually
    exchanged.
    """
    if isinstance(trace, ColumnarTrace):
        return check_active_count_invariant_columnar(graph, trace, k, lemma=lemma)
    delta = max_degree(graph)
    base = delta + 1.0
    report = InvariantReport()
    for (ell, m), events in _inner_loop_events(trace).items():
        bound = base ** ((m + 1) / k)
        active_nodes = {
            node for node, data in events.items() if data.get("active")
        }
        for node, data in events.items():
            report.checked += 1
            if "a_value" in data:
                observed = float(data["a_value"])
            elif data.get("color") != WHITE:
                observed = 0.0
            else:
                observed = float(
                    sum(
                        1
                        for neighbor in closed_neighborhood(graph, node)
                        if neighbor in active_nodes
                    )
                )
            if observed > bound + TOLERANCE:
                report.violations.append(
                    InvariantViolation(
                        lemma=lemma,
                        node_id=node,
                        ell=ell,
                        m=m,
                        observed=observed,
                        bound=bound,
                    )
                )
    return report


# --------------------------------------------------------------------------- #
# Lemma 4: z-value invariant for Algorithm 2                                   #
# --------------------------------------------------------------------------- #


def check_z_invariant_known_delta(
    graph: nx.Graph, trace: ExecutionTrace | ColumnarTrace, k: int
) -> InvariantReport:
    """Check z_i ≤ (Δ+1)^{-(ℓ-1)/k} at the end of every outer iteration."""
    if isinstance(trace, ColumnarTrace):
        return check_z_invariant_known_delta_columnar(graph, trace, k)
    delta = max_degree(graph)
    base = delta + 1.0
    report = InvariantReport()
    for ell, z_values in _reconstruct_z_values(graph, trace, k).items():
        bound = base ** (-(ell - 1) / k)
        for node, observed in z_values.items():
            report.checked += 1
            if observed > bound + TOLERANCE:
                report.violations.append(
                    InvariantViolation(
                        lemma="Lemma 4",
                        node_id=node,
                        ell=ell,
                        m=None,
                        observed=observed,
                        bound=bound,
                    )
                )
    return report


# --------------------------------------------------------------------------- #
# Lemma 7: z-value invariant for Algorithm 3                                   #
# --------------------------------------------------------------------------- #


def check_z_invariant_unknown_delta(
    graph: nx.Graph, trace: ExecutionTrace | ColumnarTrace, k: int
) -> InvariantReport:
    """Check z_i ≤ (1 + (Δ+1)^{1/k}) / γ⁽¹⁾(v_i)^{ℓ/(ℓ+1)} per outer iteration.

    γ⁽¹⁾(v_i) is the maximum dynamic degree over the closed neighbourhood of
    v_i at the *beginning* of the outer-loop iteration, reconstructed from
    the ``outer-loop-start`` trace events.
    """
    if isinstance(trace, ColumnarTrace):
        return check_z_invariant_unknown_delta_columnar(graph, trace, k)
    delta = max_degree(graph)
    base = delta + 1.0
    report = InvariantReport()
    outer_starts = _outer_start_events(trace)
    z_per_ell = _reconstruct_z_values(graph, trace, k)
    for ell, z_values in z_per_ell.items():
        start_events = outer_starts.get(ell, {})
        if not start_events:
            continue
        dynamic_at_start = {
            node: float(data["dynamic_degree"]) for node, data in start_events.items()
        }
        for node, observed in z_values.items():
            report.checked += 1
            gamma_one = max(
                dynamic_at_start.get(neighbor, 0.0)
                for neighbor in closed_neighborhood(graph, node)
            )
            gamma_one = max(gamma_one, 1.0)
            bound = (1.0 + base ** (1.0 / k)) / gamma_one ** (ell / (ell + 1))
            if observed > bound + TOLERANCE:
                report.violations.append(
                    InvariantViolation(
                        lemma="Lemma 7",
                        node_id=node,
                        ell=ell,
                        m=None,
                        observed=observed,
                        bound=bound,
                    )
                )
    return report


# --------------------------------------------------------------------------- #
# Columnar twins: the same lemmas as array reductions over a ColumnarTrace     #
# --------------------------------------------------------------------------- #


class _ColumnarView:
    """Shared machinery for the columnar checkers.

    Wraps the CSR view of the graph (building one when handed a networkx
    graph) and maps the trace's ``node_id`` column to array positions.
    """

    def __init__(self, graph: nx.Graph | BulkGraph) -> None:
        self.bulk = (
            graph if isinstance(graph, BulkGraph) else BulkGraph.from_graph(graph)
        )
        self.node_array = np.asarray(self.bulk.nodes)

    @property
    def n(self) -> int:
        return self.bulk.n

    def positions(self, ids: np.ndarray) -> np.ndarray:
        """Array positions of trace node ids (BulkGraph stores nodes sorted)."""
        positions = np.searchsorted(self.node_array, ids)
        clipped = np.minimum(positions, self.node_array.size - 1)
        if not np.array_equal(self.node_array[clipped], ids):
            raise ValueError("trace references node ids not present in the graph")
        return clipped


def _first_appearance(values: np.ndarray) -> list[int]:
    """Distinct values ordered by first appearance (the event dicts' order)."""
    unique, first = np.unique(values, return_index=True)
    return [int(value) for value in unique[np.argsort(first, kind="stable")]]


def _first_appearance_pairs(
    ells: np.ndarray, ms: np.ndarray
) -> list[tuple[int, int]]:
    """Distinct (ell, m) pairs ordered by first appearance."""
    if ells.size == 0:
        return []
    pairs = np.stack([ells, ms], axis=1)
    unique, first = np.unique(pairs, axis=0, return_index=True)
    order = np.argsort(first, kind="stable")
    return [(int(ell), int(m)) for ell, m in unique[order]]


def _last_occurrence_indices(ids: np.ndarray) -> np.ndarray:
    """Indices keeping each id's last occurrence, in first-appearance order.

    Mirrors the event checkers' ``grouped[key][node] = data`` bookkeeping:
    dict insertion order is the node's first appearance, the stored payload
    its last.  Well-formed traces record each node once per group, which the
    fast path detects without a Python loop.
    """
    if np.unique(ids).size == ids.size:
        return np.arange(ids.size, dtype=np.int64)
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for position, value in enumerate(ids.tolist()):
        if value not in first:
            first[value] = position
        last[value] = position
    return np.fromiter(
        (last[value] for value in first), dtype=np.int64, count=len(first)
    )


def check_dynamic_degree_invariant_columnar(
    graph: nx.Graph | BulkGraph,
    trace: ColumnarTrace,
    k: int,
    lemma: str = "Lemma 2",
) -> InvariantReport:
    """Columnar twin of :func:`check_dynamic_degree_invariant`."""
    base = max_degree(graph) + 1.0
    report = InvariantReport()
    ells = trace.column("outer-loop-start", "ell")
    if ells.size == 0:
        return report
    nodes = trace.nodes_of("outer-loop-start")
    degrees = trace.column("outer-loop-start", "dynamic_degree")
    for ell in _first_appearance(ells):
        bound = base ** ((ell + 1) / k)
        selection = np.flatnonzero(ells == ell)
        selection = selection[_last_occurrence_indices(nodes[selection])]
        observed = degrees[selection].astype(np.float64)
        report.checked += int(selection.size)
        for position in np.flatnonzero(observed > bound + TOLERANCE):
            report.violations.append(
                InvariantViolation(
                    lemma=lemma,
                    node_id=int(nodes[selection[position]]),
                    ell=ell,
                    m=None,
                    observed=float(observed[position]),
                    bound=bound,
                )
            )
    return report


def check_active_count_invariant_columnar(
    graph: nx.Graph | BulkGraph,
    trace: ColumnarTrace,
    k: int,
    lemma: str = "Lemma 3",
) -> InvariantReport:
    """Columnar twin of :func:`check_active_count_invariant`.

    Active counts are reconstructed with one CSR ``neighbor_count`` per
    (ell, m) group -- exact integer arithmetic either way -- unless the
    trace carries the algorithm's own ``a_value`` column (Algorithm 3),
    which is then validated directly like the event checker does.
    """
    base = max_degree(graph) + 1.0
    report = InvariantReport()
    ells = trace.column("inner-loop", "ell")
    if ells.size == 0:
        return report
    view = _ColumnarView(graph)
    ms = trace.column("inner-loop", "m")
    nodes = trace.nodes_of("inner-loop")
    active = trace.column("inner-loop", "active")
    colors = trace.column("inner-loop", "color")
    has_a_value = "a_value" in trace.keys("inner-loop")
    a_values = trace.column("inner-loop", "a_value") if has_a_value else None
    for ell, m in _first_appearance_pairs(ells, ms):
        bound = base ** ((m + 1) / k)
        selection = np.flatnonzero((ells == ell) & (ms == m))
        selection = selection[_last_occurrence_indices(nodes[selection])]
        positions = view.positions(nodes[selection])
        if has_a_value:
            observed = a_values[selection].astype(np.float64)
        else:
            active_mask = np.zeros(view.n, dtype=bool)
            active_mask[positions] = active[selection]
            counts = view.bulk.neighbor_count(active_mask) + active_mask
            observed = np.where(
                colors[selection] == WHITE,
                counts[positions].astype(np.float64),
                0.0,
            )
        report.checked += int(selection.size)
        for position in np.flatnonzero(observed > bound + TOLERANCE):
            report.violations.append(
                InvariantViolation(
                    lemma=lemma,
                    node_id=int(nodes[selection[position]]),
                    ell=ell,
                    m=m,
                    observed=float(observed[position]),
                    bound=bound,
                )
            )
    return report


def _reconstruct_z_values_columnar(
    view: _ColumnarView, trace: ColumnarTrace, k: int
) -> dict[int, np.ndarray]:
    """Columnar twin of :func:`_reconstruct_z_values` (positional arrays).

    Produces z-vectors bitwise equal to the event reconstruction: each
    recipient's shares accumulate in ascending-sender order with the
    running z as the leading term (``BulkGraph.closed_chain_sum``), shares
    are the same ``increase / len(recipients)`` divisions, and untouched
    entries are carried through unchanged by masking rather than adding.
    """
    ells = trace.column("inner-loop", "ell")
    ms = trace.column("inner-loop", "m")
    nodes = trace.nodes_of("inner-loop")
    xs = trace.column("inner-loop", "x")
    colors = trace.column("inner-loop", "color")
    previous_x = np.zeros(view.n, dtype=np.float64)
    z_per_ell: dict[int, np.ndarray] = {}
    for ell in range(k - 1, -1, -1):
        z = np.zeros(view.n, dtype=np.float64)
        for m in range(k - 1, -1, -1):
            selection = np.flatnonzero((ells == ell) & (ms == m))
            if selection.size == 0:
                continue
            selection = selection[_last_occurrence_indices(nodes[selection])]
            positions = view.positions(nodes[selection])
            new_x = previous_x.copy()
            new_x[positions] = xs[selection]
            # The colour recorded in the event is the node's colour at the
            # start of the iteration -- before this iteration's increases.
            white = np.zeros(view.n, dtype=bool)
            white[positions] = colors[selection] == WHITE
            increase = new_x - previous_x
            recipient_counts = view.bulk.neighbor_count(white) + white
            shares = np.where(
                (increase > TOLERANCE) & (recipient_counts > 0),
                increase / np.maximum(recipient_counts, 1),
                0.0,
            )
            z = np.where(white, view.bulk.closed_chain_sum(z, shares), z)
            previous_x = new_x
        z_per_ell[ell] = z
    return z_per_ell


def check_z_invariant_known_delta_columnar(
    graph: nx.Graph | BulkGraph, trace: ColumnarTrace, k: int
) -> InvariantReport:
    """Columnar twin of :func:`check_z_invariant_known_delta`."""
    base = max_degree(graph) + 1.0
    view = _ColumnarView(graph)
    report = InvariantReport()
    for ell, z in _reconstruct_z_values_columnar(view, trace, k).items():
        bound = base ** (-(ell - 1) / k)
        report.checked += int(z.size)
        for position in np.flatnonzero(z > bound + TOLERANCE):
            report.violations.append(
                InvariantViolation(
                    lemma="Lemma 4",
                    node_id=view.bulk.nodes[int(position)],
                    ell=ell,
                    m=None,
                    observed=float(z[position]),
                    bound=bound,
                )
            )
    return report


def check_z_invariant_unknown_delta_columnar(
    graph: nx.Graph | BulkGraph, trace: ColumnarTrace, k: int
) -> InvariantReport:
    """Columnar twin of :func:`check_z_invariant_unknown_delta`.

    Per-node γ⁽¹⁾ bounds are evaluated with ``float.__pow__`` per distinct
    operand (the vectorized backend's power cache), so they match the event
    checker's Python-float bounds bit for bit.
    """
    base = max_degree(graph) + 1.0
    view = _ColumnarView(graph)
    report = InvariantReport()
    ells = trace.column("outer-loop-start", "ell")
    nodes = trace.nodes_of("outer-loop-start")
    degrees = trace.column("outer-loop-start", "dynamic_degree")
    numerator = 1.0 + base ** (1.0 / k)
    power_cache: dict[tuple[float, float], float] = {}
    for ell, z in _reconstruct_z_values_columnar(view, trace, k).items():
        selection = np.flatnonzero(ells == ell)
        if selection.size == 0:
            continue
        selection = selection[_last_occurrence_indices(nodes[selection])]
        positions = view.positions(nodes[selection])
        dynamic_at_start = np.zeros(view.n, dtype=np.float64)
        dynamic_at_start[positions] = degrees[selection].astype(np.float64)
        gamma_one = np.maximum(view.bulk.closed_max(dynamic_at_start), 1.0)
        bounds = numerator / _unique_powers_cached(
            gamma_one, ell / (ell + 1), power_cache
        )
        report.checked += int(z.size)
        for position in np.flatnonzero(z > bounds + TOLERANCE):
            report.violations.append(
                InvariantViolation(
                    lemma="Lemma 7",
                    node_id=view.bulk.nodes[int(position)],
                    ell=ell,
                    m=None,
                    observed=float(z[position]),
                    bound=float(bounds[position]),
                )
            )
    return report


# --------------------------------------------------------------------------- #
# Aggregate checkers                                                            #
# --------------------------------------------------------------------------- #


def check_algorithm2_invariants(
    graph: nx.Graph, trace: ExecutionTrace | ColumnarTrace, k: int
) -> InvariantReport:
    """Check Lemmas 2, 3 and 4 against an Algorithm 2 execution trace."""
    report = check_dynamic_degree_invariant(graph, trace, k, lemma="Lemma 2")
    report = report.merge(
        check_active_count_invariant(graph, trace, k, lemma="Lemma 3")
    )
    report = report.merge(check_z_invariant_known_delta(graph, trace, k))
    return report


def check_algorithm3_invariants(
    graph: nx.Graph, trace: ExecutionTrace | ColumnarTrace, k: int
) -> InvariantReport:
    """Check Lemmas 5, 6 and 7 against an Algorithm 3 execution trace."""
    report = check_dynamic_degree_invariant(graph, trace, k, lemma="Lemma 5")
    report = report.merge(
        check_active_count_invariant(graph, trace, k, lemma="Lemma 6")
    )
    report = report.merge(check_z_invariant_unknown_delta(graph, trace, k))
    return report
