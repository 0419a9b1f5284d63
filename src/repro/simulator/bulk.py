"""Bulk-synchronous execution substrate for the vectorized backend.

The message-passing simulator (:mod:`repro.simulator.runtime`) materialises
one :class:`~repro.simulator.message.Message` object per edge per round.
That fidelity is what makes traces and fault injection possible, but it caps
executions at a few thousand nodes.  This module provides the substrate for
an alternative *bulk-synchronous* execution style: every "send X to all
neighbours / receive" step of the paper's algorithms is one whole-graph
array operation over a CSR view of the adjacency structure.

Inputs are checked once, at the boundary: the constructor validates a raw
``(indptr, col)`` CSR, and :meth:`BulkGraph.from_edges` (behind the
generators and :meth:`BulkGraph.from_graph`) checks its edge arrays.  Its
sorted, deduplicated edges and the pairs
:func:`~repro.graphs.bulk.bulk_erdos_renyi_graph` samples are the upper
triangle already in CSR order, so one assembler builds every CSR: it
transposes the m upper entries and merges the two triangles row by row.
Every CSR is valid by construction and is assembled without a re-check.

A graph stores its CSR once, in the index dtype scipy itself picks (int32
while n and 2m fit).  The scipy adjacency behind the neighbourhood
operators wraps those arrays as they are, with a prefix of one shared,
read-only all-ones buffer as its data.  The ``int64`` ``indptr`` / ``col``
that code outside the kernels reads are widened from them on first use.

Four invariants tie this module to the simulator so the two backends stay
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
* **Row subsets.**  Every CSR row is one node's local computation, so a
  pass need not visit every row: :meth:`BulkGraph.neighbor_sum` sums only
  the ``rows`` a kernel reads.  Each row is still computed by the same
  kernel, left to right from ``0.0``, so a frontier pass is bitwise equal
  to the full pass.  Every pass is one serial call in the caller's thread.
* **Metrics.**  :class:`BulkMetricsBuilder` models the messages a
  fault-free simulated execution would have sent (one payload broadcast per
  node per exchange) and lays the per-round counters out exactly like
  :class:`~repro.simulator.runtime.SynchronousRunner` does: the start-up
  exchange and the round-0 exchange share the first
  :class:`~repro.simulator.metrics.RoundMetrics` entry, and the final round
  (in which every program terminates without sending) is an empty entry.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from typing import Collection, Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.simulator.metrics import ExecutionMetrics, RoundMetrics

#: Bit cost of a boolean payload (mirrors ``payload_size_bits(True)``).
BOOL_PAYLOAD_BITS = 1

#: Bit cost of a non-zero real payload (mirrors ``payload_size_bits(1.5)``).
FLOAT_PAYLOAD_BITS = 32

# Push from the frontier while its degree sum is below this fraction of the
# 2m adjacency entries; pull every row above it.  On ER graphs with
# n = 2·10⁵ and mean degree 10 (CHANGES.md), a pushed count beats the
# serial pull below ≈ 40–45% of the entries, and a pushed maximum beats the
# radix-encoded sum below ≈ 30–35%.  Two row halves on two threads gave
# the same crossovers there, so the constants stay where they were set
# against such a split pull on an earlier host: lower, and at them the push
# still wins by ≥ 20%.
_PUSH_COUNT_FRACTION = 0.3
_PUSH_MAX_FRACTION = 0.2

# A neighbour sum over a row subset gathers those rows while their degree
# sum is below this fraction of the 2m entries, and runs the full pass and
# picks the rows above it.  On the same graphs the gather beats the serial
# full pass below ≈ 45–55% of the entries, as it beat a split one; the
# constant stays at the lower crossover a split pass gave on an earlier
# host, where the gather wins by ≥ 30%.  On graphs with fewer than
# _GATHER_MIN_ENTRIES entries the whole pass costs less than the gather's
# fixed overhead (≈ 15 µs), so they always take the full pass.
_GATHER_SUM_FRACTION = 0.3
_GATHER_MIN_ENTRIES = 1 << 14

# The adjacency's data, 1.0 for every entry: one read-only buffer shared by
# all graphs, grown to exactly the largest entry count asked for (a doubled
# buffer would keep up to twice the largest graph's entries alive).
_ones = np.ones(0)
_ones.flags.writeable = False
_ones_lock = threading.Lock()


def _reset_after_fork() -> None:
    global _ones_lock
    _ones_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def available_cpu_count() -> int:
    """CPUs usable by this process (affinity-aware where the OS tells us)."""
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:  # Python >= 3.13
        return process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def _all_ones(size: int) -> np.ndarray:
    """``size`` ones (float64): a read-only prefix of the shared buffer."""
    global _ones
    with _ones_lock:
        if _ones.size < size:
            _ones = np.ones(size)
            _ones.flags.writeable = False
        return _ones[:size]


def _index_dtype(n: int, entries: int) -> np.dtype:
    """The index dtype of an n-node CSR with ``entries`` adjacency entries.

    scipy's own choice for an n × n matrix: int32 while n and the entry
    count both fit in it, int64 otherwise.  The graph stores its CSR in
    this dtype, so the scipy adjacency wraps it without a cast.
    """
    limit = np.iinfo(np.int32).max
    return np.dtype(np.int32 if max(n, entries) <= limit else np.int64)


def int_payload_bits(values: np.ndarray) -> np.ndarray:
    """Vectorized ``payload_size_bits`` for integer payloads (``int64``).

    Matches ``_int_bits`` in :mod:`repro.simulator.message`: one bit for
    zero, otherwise ``bit_length + 1`` (sign bit).  Values in the table's
    range are looked up; others (negative or larger) take ``numpy.frexp``,
    whose exponent is the exact bit length for integers below 2⁵³.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() >= 0 and values.max() < _INT_BITS.size:
        return np.take(_INT_BITS, values)
    magnitude = np.abs(values)
    _, exponent = np.frexp(magnitude.astype(np.float64))
    return np.where(magnitude == 0, 1, exponent.astype(np.int64) + 1)


# The bits of 0..2¹⁶-1, which cover every count and degree a kernel sends
# while Δ < 2¹⁶: filled by the frexp path above (the table starts empty).
_INT_BITS = np.zeros(0, dtype=np.int64)
_INT_BITS = int_payload_bits(np.arange(1 << 16))


def float_payload_bits(values: np.ndarray) -> np.ndarray:
    """Vectorized ``payload_size_bits`` for real payloads (1 bit for 0.0)."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(values == 0.0, 1, FLOAT_PAYLOAD_BITS)


@functools.lru_cache(maxsize=8)
def range_labels(n: int) -> tuple[int, ...]:
    """The labels ``0..n-1``, interned for the last 8 sizes.

    Unlabelled graphs of one size share the tuple, so label checks can
    test identity before equality.
    """
    return tuple(range(n))


def _csr_matvec(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, vector
) -> np.ndarray:
    """scipy's ``csr_matvec``: each row summed left to right from ``0.0``."""
    from scipy.sparse import _sparsetools

    vector = np.ascontiguousarray(vector, dtype=np.float64)
    result = np.zeros(indptr.size - 1)
    _sparsetools.csr_matvec(
        result.size, vector.size, indptr, indices, data, vector, result
    )
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
        ``nodes[i]`` everywhere in the vectorized backend.  Unlabelled
        graphs of the same size share one interned ``range_labels(n)``.
    degrees:
        Per-node degree δ_i as an ``int64`` array.
    indptr / col:
        CSR adjacency: the neighbours of node ``i`` (as indices) are
        ``col[indptr[i]:indptr[i+1]]``, ascending.  Both are ``int64``
        views of the one stored layout, which keeps the CSR once in
        scipy's index dtype (int32 while it fits, see :func:`_index_dtype`)
        and backs :attr:`adjacency` without a copy.  Each view is widened on
        first read (int64 arrays handed to the constructor are kept as
        theirs); the kernels read the stored arrays and never build them.
    row:
        ``col``'s companion: ``row[j]`` is the node that owns adjacency
        entry ``j`` (i.e. ``indptr`` expanded back to one entry per edge
        endpoint).  Built on first read: the kernels never need it.
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
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr must be non-decreasing")
        if col.size and (col.min() < 0 or col.max() >= n):
            raise ValueError("col entries must index nodes (0..n-1)")
        self._assemble(indptr, col, nodes)
        # Key arithmetic stays on the int64 arrays: row·n + col can pass
        # 2³¹ where both factors fit in int32.
        if np.any(self.row == col):
            raise ValueError("bulk graph must not contain self loops")
        # Each row must list its neighbours strictly ascending -- the
        # simulator-equivalence invariant every neighbourhood operator
        # relies on (and it rules out duplicate entries).  With every col
        # in 0..n-1, that holds exactly when the (row, col) keys strictly
        # increase: a key never falls across a row boundary.
        forward = self.row * np.int64(n) + col
        if not np.all(forward[1:] > forward[:-1]):
            raise ValueError(
                "CSR rows must be strictly ascending; build through "
                "from_edges or from_graph to normalise the adjacency"
            )
        # The adjacency must be symmetric (undirected communication): the
        # sorted transposed keys must equal the forward keys.
        backward = np.sort(col * np.int64(n) + self.row)
        if not np.array_equal(forward, backward):
            raise ValueError("bulk graph adjacency must be symmetric")

    def _assemble(self, indptr: np.ndarray, col: np.ndarray, nodes) -> None:
        """Set the fields of a valid CSR; checks only ``nodes``.

        The CSR is stored in :func:`_index_dtype`: the builders hand it in
        that dtype already.  ``int64`` arrays are kept as the ``indptr`` /
        ``col`` views as well.
        """
        n = indptr.size - 1
        self.nodes: tuple[Hashable, ...] = (
            range_labels(n) if nodes is None else tuple(nodes)
        )
        if len(self.nodes) != n:
            raise ValueError("nodes must provide one identifier per CSR row")
        self.n = n
        index = _index_dtype(n, col.size)
        self._indptr = indptr.astype(index, copy=False)
        self._col = col.astype(index, copy=False)
        self._indptr64 = indptr if indptr.dtype == np.int64 else None
        self._col64 = col if col.dtype == np.int64 else None
        self.degrees = np.subtract(
            self._indptr[1:], self._indptr[:-1], dtype=np.int64
        )
        self._row: np.ndarray | None = None
        # Row starts of the non-empty CSR rows, for reduceat-based maxima.
        self._nonempty = np.flatnonzero(self.degrees > 0)
        self._nonempty_starts = self._indptr[self._nonempty].astype(
            np.int64, copy=False
        )
        # node -> position, built lazily by _positions.
        self._index: dict[Hashable, int] | None = None
        # Lazy scipy CSR of the adjacency A (data = 1.0) over the stored
        # arrays, the matrix behind neighbor_sum / neighbor_count /
        # neighbor_any.
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
        """Build a :class:`BulkGraph` from a networkx graph (sorted nodes).

        Each row comes from a neighbour dict of ``graph.adjacency()`` (a
        multigraph's parallel edges share one key).  An undirected graph
        lists every edge from both ends, so only the entries whose owner
        is not above their neighbour go on: each edge once, and every self
        loop.  A digraph's successor rows go on whole, to be symmetrised.
        The CSR and the errors (no nodes, self loops) are
        :meth:`from_edges`'s.
        """
        nodes: tuple[Hashable, ...] = tuple(sorted(graph.nodes()))
        n = len(nodes)
        index = dict(zip(nodes, range(n)))
        rows = list(map(dict(graph.adjacency()).__getitem__, nodes))
        lengths = np.fromiter(map(len, rows), np.int64, n)
        owners = np.repeat(np.arange(n, dtype=np.int64), lengths)
        neighbors = np.fromiter(
            map(index.__getitem__, itertools.chain.from_iterable(rows)),
            np.int64,
            owners.size,
        )
        if not graph.is_directed():
            upper = owners <= neighbors
            owners, neighbors = owners[upper], neighbors[upper]
        return cls.from_edges(n, owners, neighbors, nodes=nodes)

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
        edge set.  The edge arrays are checked here; the CSR built from
        them is valid by construction, so :meth:`__init__`'s checks are
        skipped.
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

        # Canonical edges lo < hi with int64 keys lo·n + hi.  Edges that
        # arrive in strictly increasing key order are used as they are; any
        # others are sorted and deduped on the m keys.
        lo = np.minimum(u, v).ravel()
        hi = np.maximum(u, v).ravel()
        keys = lo * np.int64(n) + hi
        if not np.all(keys[1:] > keys[:-1]):
            keys = np.sort(keys)
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            lo, hi = np.divmod(keys, n)
        # Increasing keys are the upper triangle in CSR order: row lo lists
        # its upper neighbours hi ascending.
        m = keys.size
        dtype = _index_dtype(n, 2 * m)
        indptr = np.zeros(n + 1, dtype=dtype)
        np.cumsum(np.bincount(lo, minlength=n), out=indptr[1:])
        entries = np.empty(2 * m, dtype=dtype)
        entries[m:] = hi
        return cls._from_upper(n, indptr, entries, nodes)

    @classmethod
    def _from_upper(
        cls, n: int, indptr: np.ndarray, entries: np.ndarray, nodes=None
    ) -> "BulkGraph":
        """The graph whose upper triangle U is the CSR ``(indptr, entries[m:])``.

        Row u of U lists u's neighbours above u, strictly ascending; the
        caller builds it valid, in the index dtype of the 2m-entry CSR, so
        :meth:`__init__`'s checks are skipped.  ``entries`` has 2m slots
        and its first m are overwritten with the lower triangle, U's
        transpose (scipy's ``csr_tocsc``): its row v lists the neighbours
        below v, ascending.  Then ``csr_hstack`` writes every row as
        [lower | upper], which is each row ascending.
        """
        from scipy.sparse import _sparsetools

        m = int(indptr[-1])
        index = indptr.dtype
        # scipy's kernels carry a value per entry: one zero byte each.
        values = np.zeros(2 * m, dtype=bool)
        copied = np.empty(2 * m, dtype=bool)
        lower = np.empty(n + 1, dtype=index)
        _sparsetools.csr_tocsc(
            n, n, indptr, entries[m:], values[m:], lower, entries[:m], copied[:m]
        )
        final = np.empty(n + 1, dtype=index)
        col = np.empty(2 * m, dtype=index)
        # Each block's row pointer is relative to its first entry: the
        # upper block follows the lower one in ``entries``.
        _sparsetools.csr_hstack(
            2, n, np.zeros(2, dtype=index), np.concatenate((lower, indptr)),
            entries, values, final, col, copied,
        )
        graph = cls.__new__(cls)
        graph._assemble(final, col, nodes)
        return graph

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
    def indptr(self) -> np.ndarray:
        """The ``int64`` row pointer, widened from the stored one on first read."""
        if self._indptr64 is None:
            self._indptr64 = self._indptr.astype(np.int64, copy=False)
        return self._indptr64

    @property
    def col(self) -> np.ndarray:
        """The ``int64`` column indices, widened from the stored ones on first read."""
        if self._col64 is None:
            self._col64 = self._col.astype(np.int64, copy=False)
        return self._col64

    @property
    def row(self) -> np.ndarray:
        """The owner of each adjacency entry, built on first read."""
        if self._row is None:
            self._row = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return self._row

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
        return self._col.size // 2

    def _positions(self) -> dict[Hashable, int]:
        """node -> array position, built on first use."""
        if self._index is None:
            self._index = dict(zip(self.nodes, range(self.n)))
        return self._index

    def _label_positions(self, members: Collection) -> np.ndarray | None:
        """``members``' positions read off the labels, or ``None``.

        Only the interned labels ``0..n-1`` are their own positions, and
        only plain ``int`` members in range qualify: ``True`` and ``1.0``
        hash like ``1``, so anything else takes the label dict, errors too.
        """
        if list(map(type, members)).count(int) != len(members) or (
            self.nodes is not range_labels(self.n)
        ):
            return None
        try:
            positions = np.fromiter(members, np.int64, len(members))
        except OverflowError:
            return None
        if positions.size and (positions.min() < 0 or positions.max() >= self.n):
            return None
        return positions

    def index_of(self, items: Iterable[Hashable]) -> np.ndarray:
        """Map node identifiers to their array positions."""
        members = items if isinstance(items, Collection) else list(items)
        positions = self._label_positions(members)
        if positions is None:
            positions = np.fromiter(
                map(self._positions().__getitem__, members), np.int64, len(members)
            )
        return positions

    def member_mask(
        self, candidate: Iterable[Hashable], ignore_unknown: bool = False
    ) -> np.ndarray:
        """Bool mask, in ``nodes`` order, of the nodes in ``candidate``.

        A node not in the graph raises ``ValueError`` (a stale set from
        another graph is a bug worth surfacing) unless ``ignore_unknown``.
        """
        members = candidate if isinstance(candidate, Collection) else list(candidate)
        found = self._label_positions(members)
        if found is None:
            positions = self._positions()
            found = np.fromiter(
                map(positions.get, members, itertools.repeat(-1)), np.int64, len(members)
            )
            if not ignore_unknown and found.min(initial=0) < 0:
                unknown = sorted({node for node in members if node not in positions})
                raise ValueError(
                    f"candidate contains nodes not in the graph: {unknown[:5]}"
                )
        flags = np.zeros(self.n, dtype=bool)
        flags[found[found >= 0]] = True
        return flags

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

        Built on first use around the stored arrays, which are already in
        scipy's index dtype: no cast, no copy, no scan.  Its data is a
        prefix of one read-only all-ones buffer shared by every graph.
        Masked operators reuse these indices with the delivered mask as the
        matrix data.
        """
        if self._adjacency is None:
            from scipy import sparse

            ones = _all_ones(self._col.size)
            adjacency = sparse.csr_matrix(
                (ones, self._col, self._indptr), shape=(self.n, self.n), copy=False
            )
            # scipy copies a data prefix shorter than half its buffer (its
            # ``prune``); the shared prefix serves just as well.
            adjacency.data = ones
            self._adjacency = adjacency
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

    def _matrix_data(self, edge_mask: np.ndarray | None) -> np.ndarray:
        """The adjacency's data: 1.0, or ``edge_mask`` as 0.0 / 1.0."""
        if edge_mask is None:
            return self.adjacency.data
        return np.asarray(edge_mask, dtype=np.float64)

    def _matvec(
        self, values: np.ndarray, edge_mask: np.ndarray | None
    ) -> np.ndarray:
        """``A @ values`` (``edge_mask`` as the matrix data when given)."""
        adjacency = self.adjacency
        return _csr_matvec(
            adjacency.indptr, adjacency.indices, self._matrix_data(edge_mask), values
        )

    def _gather_rows(
        self, rows: np.ndarray, lengths: np.ndarray, data: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency's indices and ``data`` on ``rows``, row after row.

        scipy's ``csr_row_index``; ``lengths`` are the rows' degrees.
        """
        from scipy.sparse import _sparsetools

        index_type = self.adjacency.indices.dtype
        indices = np.empty(int(lengths.sum()), dtype=index_type)
        gathered = np.empty(indices.size, dtype=data.dtype)
        _sparsetools.csr_row_index(
            lengths.size, np.asarray(rows, dtype=index_type), self.adjacency.indptr,
            self.adjacency.indices, data, indices, gathered,
        )
        return indices, gathered

    def neighbors_of(self, rows: np.ndarray) -> np.ndarray:
        """The neighbours of ``rows``, row after row (ascending within a row)."""
        return self._gather_rows(rows, self.degrees[rows], self.adjacency.data)[0]

    def _frontier_entries(
        self, sources: np.ndarray, fraction: float
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The neighbours in ``sources``' rows, if worth pushing from.

        Returns ``(neighbours, lengths)``, the rows' entries one after the
        other and their degrees, when the sources' degree sum is below
        ``fraction`` of the 2m adjacency entries, else ``None``.
        """
        lengths = self.degrees[sources]
        if int(lengths.sum()) >= fraction * self._col.size:
            return None
        return self._gather_rows(sources, lengths, self.adjacency.data)[0], lengths

    def neighbor_sum(
        self,
        values: np.ndarray,
        edge_mask: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-node sum of ``values`` over the *open* neighbourhood.

        Accumulates each row left to right in ascending neighbour order,
        reproducing the node programs' ``sum(neighbor_payloads.values())``
        bit for bit.  ``edge_mask`` (one bool per CSR position) turns the
        masked-out entries into ``+0.0`` terms, so the sum equals the
        simulated inbox sum of only the delivered messages, bit for bit.
        ``values`` must be finite.

        ``rows`` (node positions) sums only those rows and
        returns one sum per listed row.  While their degree sum is small
        the rows are gathered into a sub-CSR (scipy's ``csr_row_index``)
        for the same matvec; every sum is bitwise the full pass's.
        """
        if rows is None:
            return self._matvec(values, edge_mask)
        lengths = self.degrees[rows]
        reach = int(lengths.sum())
        if (
            self._col.size < _GATHER_MIN_ENTRIES
            or reach >= _GATHER_SUM_FRACTION * self._col.size
        ):
            return self._matvec(values, edge_mask)[rows]
        indptr = np.zeros(lengths.size + 1, dtype=self.adjacency.indices.dtype)
        np.cumsum(lengths, out=indptr[1:])
        indices, data = self._gather_rows(rows, lengths, self._matrix_data(edge_mask))
        return _csr_matvec(indptr, indices, data, values)

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
                return np.bincount(frontier[0], minlength=self.n)
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

        Unmasked non-negative integers whose non-zero entries have a small
        degree sum are pushed from those sources into their rows
        (``np.maximum.at``).  Other ones with ``max·b ≤ 1022 − b``, where
        ``b = Δ.bit_length() + 1``, are pulled as the neighbour sum of
        the terms ``2^(b·v)``: at most Δ < 2^(b−1) terms, whose
        partial sums never decrease, sum into ``[2^(b·M), 2^(b·(M+1)))``,
        so the binary exponent gives the neighbours' maximum ``M`` exactly
        (−1 for an empty row).  Floats, negatives and larger values take
        the gather/reduceat pull, which runs scipy's sparse kernels on the
        values: any dtype those take (not float16).
        """
        values = np.asarray(values)
        result = values.copy()
        if not self._col.size:
            return result
        if np.issubdtype(values.dtype, np.integer) and values.min() >= 0:
            if senders is None and edge_mask is None:
                sources = np.flatnonzero(values)
                frontier = self._frontier_entries(sources, _PUSH_MAX_FRACTION)
                if frontier is not None:
                    neighbours, lengths = frontier
                    np.maximum.at(
                        result, neighbours, np.repeat(values[sources], lengths)
                    )
                    return result
            base = self.max_degree.bit_length() + 1
            if int(values.max()) * base <= 1022 - base:
                terms = np.ldexp(1.0, np.multiply(values, base, dtype=np.int32))
                if senders is not None:
                    terms *= np.asarray(senders, dtype=bool)
                _, exponent = np.frexp(self._matvec(terms, edge_mask))
                return np.maximum(values, (exponent - 1) // base).astype(
                    values.dtype, copy=False
                )
        # Pull: gather every entry's value, drop the masked entries to the
        # dtype's floor, and reduce each non-empty row.
        from scipy.sparse import _sparsetools

        floor = (
            np.iinfo(values.dtype).min
            if np.issubdtype(values.dtype, np.integer)
            else -np.inf
        )
        # A silent sender's value reaches every row as the floor.
        sources = values
        if senders is not None:
            sources = values.copy()
            np.copyto(sources, floor, where=~np.asarray(senders, dtype=bool))
        # All entries as one CSR row of ones whose columns are scaled by
        # ``sources``: each entry becomes its sender's value, read through
        # the stored indices (a take would widen them).
        col = self._col
        contributions = np.ones(col.size, dtype=values.dtype)
        _sparsetools.csr_scale_columns(
            1, sources.size, np.array([0, col.size], dtype=col.dtype), col,
            contributions, sources,
        )
        if edge_mask is not None:
            np.copyto(
                contributions, floor, where=~np.asarray(edge_mask, dtype=bool)
            )
        row_max = np.maximum.reduceat(contributions, self._nonempty_starts)
        nonempty = self._nonempty
        result[nonempty] = np.maximum(values[nonempty], row_max)
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
        # A full broadcast's message count, and the nodes that send in it
        # (True: every node has a neighbour, so its maximum needs no mask).
        self._broadcast_messages = int(self._degrees.sum())
        self._broadcast_senders = (
            True if self._has_neighbors.all() else self._has_neighbors
        )
        # (messages, total_bits, max_bits) per exchange, in execution order.
        self._exchanges: list[tuple[int, int, int]] = []
        self._bits_per_node = np.zeros(self._degrees.size, dtype=np.int64)
        self._messages_per_node = np.zeros(self._degrees.size, dtype=np.int64)
        # Exchanges in which every node broadcast, and the per-node payload
        # bits summed over them: both scale the degrees once, in build.
        self._broadcasts = 0
        self._broadcast_bits: np.ndarray | int = 0

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
            active, messages = self._broadcast_senders, self._broadcast_messages
            self._broadcasts += 1
            self._broadcast_bits += bits
            total_bits = (
                int(np.dot(bits, self._degrees)) if bits.ndim else int(bits) * messages
            )
        else:
            active = np.asarray(senders, dtype=bool) & self._has_neighbors
            sent = np.where(active, self._degrees, 0)
            sent_bits = bits * sent
            self._messages_per_node += sent
            self._bits_per_node += sent_bits
            messages = int(sent.sum())
            total_bits = int(sent_bits.sum())
        if bits.ndim == 0:
            max_bits = int(bits) if messages else 0
        else:
            max_bits = int(bits.max(where=active, initial=0))
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
