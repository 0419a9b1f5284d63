"""The formulation of IP_MDS, LP_MDS and DLP_MDS on a CSR graph.

The formulation object is deliberately small: it stores the CSR
:class:`~repro.simulator.bulk.BulkGraph` whose adjacency plus the implicit
identity is the neighbourhood matrix N = A + I, the canonical node
ordering, and the objective weights (all ones for the unweighted problem,
arbitrary positive costs for the weighted variant from the paper's remark
after Theorem 4).  N is never densified: N·x is computed as
``x + neighbor_sum(x)`` in O(n + m), and N is symmetric, so the dual
constraint operator equals the primal coverage operator.  Everything else
-- solving, feasibility checking, duality bounds -- lives in the sibling
modules and operates on this object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.simulator.bulk import BulkGraph


@dataclass(frozen=True)
class DominatingSetLP:
    """The (fractional) dominating set LP of one graph.

    Attributes
    ----------
    bulk:
        The CSR graph whose adjacency (plus the implicit identity) is the
        constraint matrix N.  Row i is the domination constraint of node
        ``nodes[i]``; column j is the incidence of variable x_j.
    nodes:
        Canonical node ordering -- identical to ``bulk.nodes`` (sorted
        node identifiers).
    weights:
        Objective coefficients c_i ≥ 0 (all ones in the unweighted case).
    """

    bulk: BulkGraph
    nodes: tuple[Hashable, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if len(self.nodes) != self.bulk.n:
            raise ValueError("nodes must match the CSR graph's node count")
        if self.weights.shape != (self.bulk.n,):
            raise ValueError("weights must be a length-n vector")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of variables / constraints n."""
        return self.bulk.n

    def index_of(self, node: Hashable) -> int:
        """Index of a node in the canonical ordering."""
        try:
            return int(self.bulk.index_of([node])[0])
        except KeyError as exc:
            raise KeyError(f"node {node!r} is not part of this LP") from exc

    def vector_from_mapping(self, values: Mapping[Hashable, float]) -> np.ndarray:
        """Convert a per-node mapping into a fresh vector in canonical order.

        Missing nodes default to 0, mirroring how distributed executions
        report only nodes that set a non-zero value.
        """
        return self._as_vector(values).copy()

    def mapping_from_vector(self, vector: Sequence[float]) -> dict[Hashable, float]:
        """Convert a canonical-order vector back into a per-node mapping."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.size,):
            raise ValueError("vector length must equal the number of nodes")
        return {node: float(value) for node, value in zip(self.nodes, vector)}

    # ------------------------------------------------------------------ #
    # Objectives and constraint operators                                  #
    # ------------------------------------------------------------------ #

    def objective(self, x: Sequence[float] | Mapping[Hashable, float]) -> float:
        """The (weighted) primal objective Σ c_i x_i."""
        vector = self._as_vector(x)
        return float(self.weights @ vector)

    def dual_objective(self, y: Sequence[float] | Mapping[Hashable, float]) -> float:
        """The dual objective Σ y_i."""
        vector = self._as_vector(y)
        return float(np.sum(vector))

    def coverage(self, x: Sequence[float] | Mapping[Hashable, float]) -> np.ndarray:
        """The vector N·x of per-node coverages, computed on the CSR."""
        vector = self._as_vector(x)
        return vector + self.bulk.neighbor_sum(vector)

    def dual_load(self, y: Sequence[float] | Mapping[Hashable, float]) -> np.ndarray:
        """The vector N·y of per-neighbourhood dual loads.

        N is symmetric, so the dual constraint matrix equals the primal one.
        """
        return self.coverage(y)

    def neighborhood_matrix(self):
        """The cached ``scipy.sparse`` CSR of N = A + I (built once).

        Delegates to :func:`neighborhood_csr_matrix`, which memoizes the
        matrix on the underlying :class:`~repro.simulator.bulk.BulkGraph`
        so every consumer (HiGHS solve, first-order iterations,
        certification) shares one instance.
        """
        return neighborhood_csr_matrix(self.bulk)

    def _as_vector(self, values: Sequence[float] | Mapping[Hashable, float]) -> np.ndarray:
        if isinstance(values, Mapping):
            # A NodeValues view in this LP's node order hands over its
            # read-only array without a copy.  Imported here: repro.core
            # imports repro.lp through repro.domset.
            from repro.core.vectorized import x_array_from_mapping

            return x_array_from_mapping(self.bulk, values)
        vector = np.asarray(values, dtype=float)
        if vector.shape != (self.size,):
            raise ValueError("vector length must equal the number of nodes")
        return vector


def weight_vector(
    bulk: BulkGraph, weights: Mapping[Hashable, float] | None
) -> np.ndarray:
    """Canonical-order weight vector from a per-node cost mapping.

    ``None`` means unweighted (all ones); a mapping must cover every node.
    Anything else is rejected: a sequence or array would be checked for
    membership against its *values*, not matched to nodes.
    """
    if weights is None:
        return np.ones(bulk.n)
    if not isinstance(weights, Mapping):
        raise TypeError(
            "weights must be a mapping from node to cost or None, "
            f"not {type(weights).__name__}"
        )
    missing = [node for node in bulk.nodes if node not in weights]
    if missing:
        raise ValueError(f"weights missing for nodes: {missing[:5]}")
    return np.array([float(weights[node]) for node in bulk.nodes])


def build_lp(
    graph: nx.Graph | BulkGraph, weights: Mapping[Hashable, float] | None = None
) -> DominatingSetLP:
    """Build the dominating set LP of a graph.

    Parameters
    ----------
    graph:
        The input graph: a CSR :class:`~repro.simulator.bulk.BulkGraph`,
        or a networkx graph, which is converted once with
        :meth:`BulkGraph.from_graph` (so empty graphs and self-loops raise
        ``ValueError``).  Memory is O(n + m) either way.
    weights:
        Optional positive node costs for the weighted dominating set variant;
        defaults to 1 for every node.

    Returns
    -------
    DominatingSetLP
    """
    bulk = graph if isinstance(graph, BulkGraph) else BulkGraph.from_graph(graph)
    return DominatingSetLP(
        bulk=bulk, nodes=bulk.nodes, weights=weight_vector(bulk, weights)
    )


def neighborhood_csr_matrix(bulk: BulkGraph):
    """The constraint matrix N = A + I as a ``scipy.sparse`` CSR.

    Only the actual *solvers* need a matrix object (HiGHS takes one, and
    the first-order methods drive scipy's in-place matvec kernel with
    it); every check in this package uses the matrix-free operators of
    :class:`DominatingSetLP` instead.  The matrix is built once per
    :class:`~repro.simulator.bulk.BulkGraph` and cached on it, so a
    solve + certification pipeline pays the O(n + m) construction
    exactly once.
    """
    if bulk._neighborhood_csr is not None:
        return bulk._neighborhood_csr

    from scipy import sparse

    # scipy's canonical sum: each row's entries and the diagonal merged in
    # ascending column order.
    matrix = bulk.adjacency + sparse.identity(bulk.n, format="csr")
    bulk._neighborhood_csr = matrix
    return matrix
