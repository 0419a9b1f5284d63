"""Bulk-synchronous execution substrate for the vectorized backend.

The message-passing simulator (:mod:`repro.simulator.runtime`) materialises
one :class:`~repro.simulator.message.Message` object per edge per round.
That fidelity is what makes traces and fault injection possible, but it caps
executions at a few thousand nodes.  This module provides the substrate for
an alternative *bulk-synchronous* execution style: every "send X to all
neighbours / receive" step of the paper's algorithms is one whole-graph
array operation over a CSR view of the adjacency structure.

Two invariants tie this module to the simulator so the two backends stay
numerically interchangeable:

* **Ordering.**  :class:`BulkGraph` stores nodes in sorted order and each
  adjacency row in ascending neighbour order -- exactly the order in which
  :class:`~repro.simulator.network.Network` sorts neighbours and the runner
  delivers messages.  :meth:`BulkGraph.neighbor_sum` is scipy's
  ``csr_matvec`` over the cached adjacency, which adds every row left to
  right in that order starting from ``0.0``, so floating-point sums are
  *bitwise identical* to the ``sum(inbox_by_sender(...).values())`` loops
  in the node programs.
* **Frontiers.**  Algorithm 3 is local in practice: after its first inner
  iteration only a few percent of the nodes are white, active or carry a
  non-zero a-value.  :meth:`BulkGraph.neighbor_count` and
  :meth:`BulkGraph.closed_max` therefore *push* from the non-zero sources
  into their rows when those sources' degree sum is a small fraction of
  the 2m adjacency entries, and *pull* every row otherwise.  Counts and
  maxima do not depend on the order of their terms, so both paths return
  the same integers.
* **Metrics.**  :class:`BulkMetricsBuilder` models the messages a
  fault-free simulated execution would have sent (one payload broadcast per
  node per exchange) and lays the per-round counters out exactly like
  :class:`~repro.simulator.runtime.SynchronousRunner` does: the start-up
  exchange and the round-0 exchange share the first
  :class:`~repro.simulator.metrics.RoundMetrics` entry, and the final round
  (in which every program terminates without sending) is an empty entry.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.simulator.metrics import ExecutionMetrics, RoundMetrics

#: Bit cost of a boolean payload (mirrors ``payload_size_bits(True)``).
BOOL_PAYLOAD_BITS = 1

#: Bit cost of a non-zero real payload (mirrors ``payload_size_bits(1.5)``).
FLOAT_PAYLOAD_BITS = 32

# Push from the frontier while its degree sum is below this fraction of the
# 2m adjacency entries; pull every row above it.  The crossovers were
# measured on ER graphs with n = 2·10⁵ and mean degree 10 (CHANGES.md):
# a pushed count wins below ≈ 25% of the nodes, a pushed maximum below ≈ 50%.
_PUSH_COUNT_FRACTION = 0.25
_PUSH_MAX_FRACTION = 0.5


def int_payload_bits(values: np.ndarray) -> np.ndarray:
    """Vectorized ``payload_size_bits`` for integer payloads.

    Matches ``_int_bits`` in :mod:`repro.simulator.message`: one bit for
    zero, otherwise ``bit_length + 1`` (sign bit).  ``numpy.frexp`` returns
    the exact binary exponent, i.e. the bit length, for integers below 2⁵³.
    """
    magnitude = np.abs(np.asarray(values, dtype=np.int64))
    _, exponent = np.frexp(magnitude.astype(np.float64))
    return np.where(magnitude == 0, 1, exponent + 1)


def float_payload_bits(values: np.ndarray) -> np.ndarray:
    """Vectorized ``payload_size_bits`` for real payloads (1 bit for 0.0)."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(values == 0.0, 1, FLOAT_PAYLOAD_BITS)


def _csr_matvec(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, vector
) -> np.ndarray:
    """scipy's ``csr_matvec``: each row summed left to right from ``0.0``."""
    from scipy.sparse import _sparsetools

    rows = indptr.size - 1
    vector = np.ascontiguousarray(vector, dtype=np.float64)
    result = np.zeros(rows)
    _sparsetools.csr_matvec(rows, vector.size, indptr, indices, data, vector, result)
    return result


class BulkGraph:
    """A CSR (compressed sparse row) communication graph.

    A :class:`BulkGraph` is a *first-class* construction target: the
    direct-to-CSR generators in :mod:`repro.graphs.bulk` build one straight
    from edge arrays without ever materialising per-edge Python objects,
    and :meth:`from_graph` converts an existing networkx graph.

    Attributes
    ----------
    nodes:
        Node identifiers in sorted order; array index ``i`` corresponds to
        ``nodes[i]`` everywhere in the vectorized backend.
    degrees:
        Per-node degree δ_i as an ``int64`` array.
    indptr / col:
        CSR adjacency: the neighbours of node ``i`` (as indices) are
        ``col[indptr[i]:indptr[i+1]]``, ascending.
    row:
        ``col``'s companion: ``row[j]`` is the node that owns adjacency
        entry ``j`` (i.e. ``indptr`` expanded back to one entry per edge
        endpoint).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        col: np.ndarray,
        nodes: Sequence[Hashable] | None = None,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 2:
            raise ValueError("indptr must be a 1-d array with at least two entries")
        n = indptr.size - 1
        if indptr[0] != 0 or indptr[-1] != col.size:
            raise ValueError("indptr must start at 0 and end at len(col)")
        degrees = np.diff(indptr)
        if np.any(degrees < 0):
            raise ValueError("indptr must be non-decreasing")
        if col.size and (col.min() < 0 or col.max() >= n):
            raise ValueError("col entries must index nodes (0..n-1)")

        self.nodes: tuple[Hashable, ...] = (
            tuple(range(n)) if nodes is None else tuple(nodes)
        )
        if len(self.nodes) != n:
            raise ValueError("nodes must provide one identifier per CSR row")
        self.n = n
        self.degrees = degrees
        self.indptr = indptr
        self.col = col
        self.row = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
        if np.any(self.row == col):
            raise ValueError("bulk graph must not contain self loops")
        # Each row must list its neighbours strictly ascending -- the
        # simulator-equivalence invariant every neighbourhood operator
        # relies on (and it rules out duplicate entries).
        if col.size > 1:
            interior = np.ones(col.size - 1, dtype=bool)
            starts = indptr[1:-1]
            starts = starts[(starts > 0) & (starts < col.size)]
            interior[starts - 1] = False
            if not np.all(np.diff(col)[interior] > 0):
                raise ValueError(
                    "CSR rows must be strictly ascending; build through "
                    "from_edges or from_graph to normalise the adjacency"
                )
        # The adjacency must be symmetric (undirected communication).  The
        # rows are strictly ascending by now, so the forward keys already
        # come out sorted.
        forward = self.row * np.int64(n) + col
        backward = np.sort(col * np.int64(n) + self.row)
        if not np.array_equal(forward, backward):
            raise ValueError("bulk graph adjacency must be symmetric")
        # Row starts of the non-empty CSR rows, for reduceat-based maxima.
        self._nonempty = np.flatnonzero(degrees > 0)
        self._nonempty_starts = self.indptr[self._nonempty]
        # node -> position, built lazily by index_of.
        self._index: dict[Hashable, int] | None = None
        # Lazy scipy CSR of the adjacency A (data = 1.0), the matrix behind
        # neighbor_sum / neighbor_count / neighbor_any.
        self._adjacency = None
        # Lazy fault-free (δ⁽¹⁾, δ⁽²⁾), shared by Algorithms 1 and 3.
        self._degree_maxima: tuple[np.ndarray, np.ndarray] | None = None
        # Lazy scipy CSR of N = A + I, shared by the LP solvers and
        # certification (built once by
        # repro.lp.formulation.neighborhood_csr_matrix).
        self._neighborhood_csr = None
        # Lazy augmented CSR for closed_chain_sum: (indptr, indices,
        # slots of the neighbour entries).
        self._chain: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "BulkGraph":
        """Build a :class:`BulkGraph` from a networkx graph."""
        if graph.number_of_nodes() == 0:
            raise ValueError("bulk graph must contain at least one node")
        if any(u == v for u, v in graph.edges()):
            raise ValueError("bulk graph must not contain self loops")

        nodes: tuple[Hashable, ...] = tuple(sorted(graph.nodes()))
        n = len(nodes)
        index = {node: position for position, node in enumerate(nodes)}

        degrees = np.zeros(n, dtype=np.int64)
        col_chunks: list[np.ndarray] = []
        for position, node in enumerate(nodes):
            # Sorting identifiers and then mapping to indices preserves the
            # simulator's ascending-neighbour delivery order because the
            # index assignment above is monotone in the sorted identifiers.
            neighbor_indices = np.fromiter(
                (index[neighbor] for neighbor in sorted(graph.neighbors(node))),
                dtype=np.int64,
            )
            degrees[position] = neighbor_indices.size
            col_chunks.append(neighbor_indices)

        indptr = np.concatenate(([0], np.cumsum(degrees)))
        col = np.concatenate(col_chunks) if col_chunks else np.empty(0, dtype=np.int64)
        return cls(indptr, col, nodes=nodes)

    @classmethod
    def from_edges(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        nodes: Sequence[Hashable] | None = None,
    ) -> "BulkGraph":
        """Build a :class:`BulkGraph` from arrays of undirected edges.

        Duplicate edges (in either orientation) are merged; self loops are
        rejected.  The CSR rows come out in ascending neighbour order, so
        the result is interchangeable with :meth:`from_graph` of the same
        edge set.
        """
        if n <= 0:
            raise ValueError("bulk graph must contain at least one node")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError("u and v must have the same shape")
        if u.size and (
            min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n
        ):
            raise ValueError("edge endpoints must index nodes (0..n-1)")
        if np.any(u == v):
            raise ValueError("bulk graph must not contain self loops")

        # Symmetrize, then dedupe via the flattened (row, col) key: sort,
        # keep each run's first key (faster than np.unique's hashing).
        keys = np.sort(np.concatenate([u * np.int64(n) + v, v * np.int64(n) + u]))
        if keys.size:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        row = keys // n
        col = keys % n
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(row, minlength=n)))
        ).astype(np.int64)
        return cls(indptr, col, nodes=nodes)

    def to_networkx(self) -> nx.Graph:
        """Materialise the equivalent networkx graph (for tests/interop)."""
        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        mask = self.row < self.col
        node_array = self.nodes
        graph.add_edges_from(
            (node_array[int(a)], node_array[int(b)])
            for a, b in zip(self.row[mask], self.col[mask])
        )
        return graph

    @property
    def node_index(self) -> np.ndarray:
        """Each row's position in sorted node order: its coin-stream index."""
        return np.arange(self.n, dtype=np.int64)

    @property
    def max_degree(self) -> int:
        """The maximum degree Δ (0 for an edgeless graph)."""
        return int(self.degrees.max()) if self.n else 0

    @property
    def number_of_edges(self) -> int:
        """Number of undirected edges m."""
        return int(self.col.size // 2)

    def index_of(self, items: Iterable[Hashable]) -> np.ndarray:
        """Map node identifiers to their array positions."""
        if self._index is None:
            self._index = {
                node: position for position, node in enumerate(self.nodes)
            }
        return np.fromiter((self._index[item] for item in items), dtype=np.int64)

    def is_dominating_set(self, flags: np.ndarray) -> bool:
        """Whether the flagged nodes dominate every node (closed coverage)."""
        flags = np.asarray(flags, dtype=bool)
        return bool(np.all(flags | self.neighbor_any(flags)))

    def check_lp_feasible(
        self, x: np.ndarray, tolerance: float = 1e-7
    ) -> tuple[bool, float]:
        """Check ``N·x ≥ 1`` and ``x ≥ 0`` up to ``tolerance`` on the CSR.

        Returns ``(feasible, max_violation)``; the same check as
        :func:`~repro.lp.feasibility.check_primal_feasible` on a vector
        that is already in ``nodes`` order.
        """
        x = np.asarray(x, dtype=np.float64)
        nonnegativity_violation = float(np.max(np.maximum(-x, 0.0), initial=0.0))
        coverage = x + self.neighbor_sum(x)
        coverage_violation = float(np.max(np.maximum(1.0 - coverage, 0.0), initial=0.0))
        max_violation = max(nonnegativity_violation, coverage_violation)
        return max_violation <= tolerance, max_violation

    @property
    def adjacency(self):
        """The adjacency matrix A as a cached ``scipy.sparse`` CSR (data 1.0).

        Built on first use from ``indptr`` / ``col``; scipy keeps its own
        (int32 where it fits) copy of the indices.  Masked operators reuse
        these indices with the delivered mask as the matrix data.
        """
        if self._adjacency is None:
            from scipy import sparse

            self._adjacency = sparse.csr_matrix(
                (np.ones(self.col.size), self.col, self.indptr),
                shape=(self.n, self.n),
            )
        return self._adjacency

    def degree_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """Fault-free ``(δ⁽¹⁾, δ⁽²⁾)``: closed-neighbourhood degree maxima.

        Computed once per graph and cached (read-only): the δ⁽²⁾ prefixes
        of Algorithms 1 and 3 and the Lemma 1 bound all read it.
        """
        if self._degree_maxima is None:
            delta_one = self.closed_max(self.degrees)
            delta_two = self.closed_max(delta_one)
            delta_one.flags.writeable = False
            delta_two.flags.writeable = False
            self._degree_maxima = (delta_one, delta_two)
        return self._degree_maxima

    # ------------------------------------------------------------------ #
    # Neighbourhood operators                                             #
    # ------------------------------------------------------------------ #
    #
    # Sums and counts are one sparse matvec ``A @ values``.  scipy's
    # ``csr_matvec`` adds each row left to right starting from 0.0, the
    # order of the node programs' inbox sums.  A masked call passes the
    # delivered mask as the matrix data, so a dropped message adds
    # ``0.0 * value`` -- an exact +0.0 only for *finite* values, the
    # operators' precondition (every payload the kernels exchange is).

    def _matvec(
        self, values: np.ndarray, edge_mask: np.ndarray | None
    ) -> np.ndarray:
        """``A @ values`` (``edge_mask`` as the matrix data when given)."""
        adjacency = self.adjacency
        data = (
            adjacency.data
            if edge_mask is None
            else np.asarray(edge_mask, dtype=np.float64)
        )
        return _csr_matvec(adjacency.indptr, adjacency.indices, data, values)

    def _frontier_entries(
        self, sources: np.ndarray, fraction: float
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """CSR positions of ``sources``' rows, if worth pushing from.

        Returns ``(positions, lengths)`` when the sources' degree sum is
        below ``fraction`` of the 2m adjacency entries, else ``None``.
        """
        lengths = self.degrees[sources]
        reach = int(lengths.sum())
        if reach >= fraction * self.col.size:
            return None
        # Concatenate the ranges indptr[s] .. indptr[s] + degree(s).
        starts = self.indptr[sources] - (np.cumsum(lengths) - lengths)
        return np.arange(reach, dtype=np.int64) + np.repeat(starts, lengths), lengths

    def neighbor_sum(
        self, values: np.ndarray, edge_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-node sum of ``values`` over the *open* neighbourhood.

        Accumulates each row left to right in ascending neighbour order,
        reproducing the node programs' ``sum(neighbor_payloads.values())``
        bit for bit.  ``edge_mask`` (one bool per CSR position) turns the
        masked-out entries into ``+0.0`` terms, so the sum equals the
        simulated inbox sum of only the delivered messages, bit for bit.
        ``values`` must be finite.
        """
        return self._matvec(values, edge_mask)

    def neighbor_count(
        self, flags: np.ndarray, edge_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-node count of ``True`` flags over the open neighbourhood.

        ``edge_mask`` restricts the count to unmasked CSR positions.  An
        unmasked call whose flagged nodes' degree sum is small pushes the
        flags into their rows (``bincount`` over those rows' entries)
        instead of pulling every row; both return the same ``int64``
        counts.
        """
        flags = np.asarray(flags, dtype=bool)
        if edge_mask is None:
            frontier = self._frontier_entries(
                np.flatnonzero(flags), _PUSH_COUNT_FRACTION
            )
            if frontier is not None:
                return np.bincount(self.col[frontier[0]], minlength=self.n)
        return self._matvec(flags, edge_mask).astype(np.int64)

    def closed_max(
        self,
        values: np.ndarray,
        senders: np.ndarray | None = None,
        edge_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-node maximum of ``values`` over the *closed* neighbourhood.

        ``senders`` optionally masks which neighbours contribute: entries
        with a ``False`` sender flag are ignored, exactly as the simulator
        drops the values of nodes that terminated and no longer broadcast.
        ``edge_mask`` masks individual CSR positions the same way (dropped
        messages under fault injection).  A node's *own* value always
        participates (the per-node programs seed their running maximum
        with it before reading the inbox).

        Unmasked non-negative integer values whose non-zero entries have a
        small degree sum are pushed from those sources into their rows
        (``np.maximum.at``); a zero never raises a non-negative maximum,
        so this equals pulling every row.
        """
        values = np.asarray(values)
        result = values.copy()
        if not self.col.size:
            return result
        if (
            senders is None
            and edge_mask is None
            and np.issubdtype(values.dtype, np.integer)
            and values.min() >= 0
        ):
            sources = np.flatnonzero(values)
            frontier = self._frontier_entries(sources, _PUSH_MAX_FRACTION)
            if frontier is not None:
                positions, lengths = frontier
                np.maximum.at(
                    result, self.col[positions], np.repeat(values[sources], lengths)
                )
                return result
        contributions = np.take(values, self.col)
        keep: np.ndarray | None = None
        if senders is not None:
            keep = np.take(np.asarray(senders, dtype=bool), self.col)
        if edge_mask is not None:
            edge_mask = np.asarray(edge_mask, dtype=bool)
            keep = edge_mask if keep is None else keep & edge_mask
        if keep is not None:
            floor = (
                np.iinfo(values.dtype).min
                if np.issubdtype(values.dtype, np.integer)
                else -np.inf
            )
            contributions = np.where(keep, contributions, floor)
        row_max = np.maximum.reduceat(contributions, self._nonempty_starts)
        result[self._nonempty] = np.maximum(values[self._nonempty], row_max)
        return result

    def neighbor_any(
        self, flags: np.ndarray, edge_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Whether any open-neighbourhood flag is set, per node."""
        return self.neighbor_count(flags, edge_mask=edge_mask) > 0

    def closed_chain_sum(
        self,
        carry: np.ndarray,
        values: np.ndarray,
        edge_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Left-to-right chain ``carry_i + Σ values_j`` over closed N[i].

        For each node ``i`` this evaluates
        ``(((carry_i + v_{j1}) + v_{j2}) + ...)`` where ``j1 < j2 < ...``
        ranges over the *closed* neighbourhood of ``i`` in ascending node
        order -- the node's own value participates at its sorted position,
        and the carry is the leading term of the chain.  This is exactly
        the accumulation order of a central bookkeeping loop that walks
        nodes in ascending order and does ``acc[i] += values[j]`` for every
        sender ``j`` with ``i`` in N[j], starting from ``acc = carry`` --
        the order the Lemma 4/7 z-value reconstruction in
        :mod:`repro.core.invariants` uses -- so results are bitwise equal
        to that Python loop, not merely close.

        ``edge_mask`` (one bool per CSR position) turns masked-out
        neighbour contributions into ``+0.0`` terms, which leaves the
        chain unchanged for finite values; the carry and the node's own
        value always participate (both are local state, not messages).
        """
        if self._chain is None:
            # Augmented CSR over the vector (values, carry): per row, one
            # leading carry entry (column n + i), then the closed
            # neighbourhood with the node itself inserted at its ascending
            # position among its neighbours.
            n = self.n
            indptr = np.concatenate(([0], np.cumsum(self.degrees + 2)))
            indices = np.empty(int(indptr[-1]), dtype=np.int64)
            carry_slots = indptr[:-1]
            indices[carry_slots] = n + np.arange(n, dtype=np.int64)
            offset_in_row = np.arange(self.col.size, dtype=np.int64) - self.indptr[
                self.row
            ]
            entry_slots = (
                indptr[self.row] + 1 + offset_in_row + (self.col > self.row)
            )
            indices[entry_slots] = self.col
            count_less = np.bincount(self.row[self.col < self.row], minlength=n)
            indices[carry_slots + 1 + count_less] = np.arange(n, dtype=np.int64)
            self._chain = (indptr, indices, entry_slots)
        indptr, indices, entry_slots = self._chain
        data = np.ones(indices.size)
        if edge_mask is not None:
            data[entry_slots[~np.asarray(edge_mask, dtype=bool)]] = 0.0
        vector = np.concatenate(
            (np.asarray(values, dtype=np.float64), np.asarray(carry, dtype=np.float64))
        )
        return _csr_matvec(indptr, indices, data, vector)


class BulkMetricsBuilder:
    """Accumulates modeled message statistics for a bulk execution.

    Call :meth:`record_exchange` once per "send to all neighbours" step, in
    execution order, with the payload bit-size each node broadcasts; then
    :meth:`build` produces an :class:`ExecutionMetrics` laid out exactly as
    the synchronous runner would have recorded the same (fault-free)
    execution.
    """

    def __init__(self, degrees: np.ndarray) -> None:
        self._degrees = np.asarray(degrees, dtype=np.int64)
        self._has_neighbors = self._degrees > 0
        # (messages, total_bits, max_bits) per exchange, in execution order.
        self._exchanges: list[tuple[int, int, int]] = []
        self._bits_per_node = np.zeros(self._degrees.size, dtype=np.int64)
        self._messages_per_node = np.zeros(self._degrees.size, dtype=np.int64)
        # Exchanges in which every node broadcast, and the summed uniform
        # payload bits among them: both scale the degrees once, in build.
        self._broadcasts = 0
        self._broadcast_bits = 0

    def record_exchange(
        self, payload_bits: np.ndarray | int, senders: np.ndarray | None = None
    ) -> None:
        """Account for one broadcast exchange.

        Parameters
        ----------
        payload_bits:
            Bits of the payload each node sends to *each* neighbour --
            either a per-node array or a scalar for uniform payloads
            (e.g. ``BOOL_PAYLOAD_BITS`` for colour flags).
        senders:
            Optional boolean mask of the nodes that broadcast in this
            exchange.  Algorithms with per-node early termination (LRG)
            pass the still-running mask so the modeled counts equal the
            simulator's, where terminated programs stop sending.
        """
        bits = np.asarray(payload_bits, dtype=np.int64)
        if senders is None:
            sent, active = self._degrees, self._has_neighbors
            self._broadcasts += 1
        else:
            active = np.asarray(senders, dtype=bool) & self._has_neighbors
            sent = np.where(active, self._degrees, 0)
            self._messages_per_node += sent
        messages = int(sent.sum())
        if bits.ndim == 0:
            total_bits = int(bits) * messages
            max_bits = int(bits) if messages else 0
            if senders is None:
                self._broadcast_bits += int(bits)
            else:
                self._bits_per_node += bits * sent
        else:
            sent_bits = bits * sent
            total_bits = int(sent_bits.sum())
            max_bits = int(bits.max(where=active, initial=0))
            self._bits_per_node += sent_bits
        self._exchanges.append((messages, total_bits, max_bits))

    @property
    def exchange_count(self) -> int:
        """Number of exchanges recorded so far (= rounds of the execution)."""
        return len(self._exchanges)

    def build(self, nodes: Sequence[Hashable]) -> ExecutionMetrics:
        """Assemble the final :class:`ExecutionMetrics`.

        The per-node counts stay arrays until a caller reads the dicts.
        The runner folds the start-up exchange into the round-0 entry and
        appends one empty entry for the final round in which every program
        terminates; executions with a single exchange have no such trailer.
        """
        per_round: list[tuple[int, int, int]] = []  # (messages, bits, max_bits)
        exchanges = self._exchanges
        if len(exchanges) == 1:
            per_round.append(exchanges[0])
        elif len(exchanges) >= 2:
            first_messages = exchanges[0][0] + exchanges[1][0]
            first_bits = exchanges[0][1] + exchanges[1][1]
            first_max = max(exchanges[0][2], exchanges[1][2])
            per_round.append((first_messages, first_bits, first_max))
            per_round.extend(exchanges[2:])
            per_round.append((0, 0, 0))

        rounds = [
            RoundMetrics(
                round_index=round_index,
                messages_sent=sent,
                total_bits=total_bits,
                max_message_bits=max_bits,
            )
            for round_index, (sent, total_bits, max_bits) in enumerate(per_round)
        ]
        return ExecutionMetrics.from_node_arrays(
            rounds,
            nodes,
            self._messages_per_node + self._broadcasts * self._degrees,
            self._bits_per_node + self._broadcast_bits * self._degrees,
        )
