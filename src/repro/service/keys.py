"""Canonical content hashing for solve requests.

The async solve service (:mod:`repro.service.server`) is content
addressed: two requests naming the *same* computation -- the same
communication graph, algorithm, parameters and seed -- must produce the
same cache key, no matter how the caller spelled them.  Three layers of
canonicalization make that true:

* **Graphs** hash through their CSR form.  :class:`~repro.simulator.bulk.
  BulkGraph` stores nodes sorted and every adjacency row ascending, so a
  networkx graph, a ``BulkGraph.from_graph`` conversion, and a
  ``BulkGraph.from_edges`` construction of the same edge set all share
  one ``(indptr, col, nodes)`` triple -- :func:`graph_fingerprint`
  digests exactly those arrays.
* **Parameters** normalize through :func:`repro.api.normalized_params`:
  defaults filled in, enum spellings collapsed, keys sorted.  A request
  that leaves ``variant`` implicit hashes equal to one that spells out
  ``variant=FractionalVariant.UNKNOWN_DELTA``.
* **Values** serialize through :func:`canonical_token`, a deterministic,
  repr-stable encoding covering the scalar/enum/mapping/sequence/
  dataclass values that appear in solve parameters (notably
  :class:`~repro.simulator.fault_schedule.FaultSpec` scenarios).

The execution *backend* is deliberately not part of the key: the
repository's core invariant -- gated by the twin-equivalence benchmarks
in CI -- is that every backend produces bitwise-identical results for a
given request, so a result computed on the vectorized engine may serve a
request that would have resolved to the sharded one.  (``shards`` *is* an
algorithm parameter and does participate, conservatively: it never
changes the result, only the engine layout, but keeping it costs one
cache slot, not correctness.)
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Mapping

import networkx as nx

from repro.api import AlgorithmSpec, get_spec, normalized_params
from repro.simulator.bulk import BulkGraph, range_labels

#: Version tag mixed into every digest so a future change to the key
#: layout can never collide with keys minted by an older layout.
_KEY_VERSION = b"repro-service-key-v1"


def graph_fingerprint(graph: nx.Graph | BulkGraph) -> str:
    """Hex digest of the graph's canonical CSR content.

    Equal graphs -- same node identifiers, same edge set -- fingerprint
    equal regardless of how they were built: networkx graphs convert
    through :meth:`BulkGraph.from_graph` (which sorts nodes and adjacency
    rows), and :class:`BulkGraph` inputs hash their arrays directly, so
    ``from_edges``/``from_graph`` twins coincide.  Node identifiers
    participate via their ``repr`` (stable for the int/str/tuple labels
    the generators produce).
    """
    bulk = graph if isinstance(graph, BulkGraph) else BulkGraph.from_graph(graph)
    parts = [str(bulk.n).encode(), bulk.indptr.tobytes(), bulk.col.tobytes(), b""]
    # Integer labels 0..n-1 (the direct-to-CSR generators' default) are
    # the common case; skip materialising their repr.  Unlabelled graphs
    # share the interned labels, so identity settles most keys.
    labels = range_labels(bulk.n)
    if bulk.nodes is not labels and bulk.nodes != labels:
        parts[-1] = repr(bulk.nodes).encode()
    if bulk is not graph and graph.is_directed():
        # from_graph symmetrises a digraph, which solve() rejects: keep
        # its requests off the cache entries of its undirected twin.
        parts.append(b"directed")
    return _digest(b"graph", *parts)


def _digest(kind: bytes, *parts: bytes) -> str:
    """Hex sha256 of the version tag, ``kind`` and the ``|``-joined parts."""
    digest = hashlib.sha256(_KEY_VERSION + b"|" + kind + b"|" + parts[0])
    for part in parts[1:]:
        digest.update(b"|")
        digest.update(part)
    return digest.hexdigest()


def canonical_token(value: Any) -> str:
    """A deterministic string encoding of one parameter value.

    Handles the value shapes that occur in solve parameters: scalars,
    ``None``, mappings (key-sorted), sequences, and dataclasses such as
    :class:`~repro.simulator.fault_schedule.FaultSpec` (encoded as class
    name + field items, so two equal specs tokenize equal and two
    different seeds never share a token).  Unknown objects fall back to
    ``repr``, which is stable for everything the registry accepts.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}={canonical_token(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, Mapping):
        items = ",".join(
            f"{canonical_token(key)}:{canonical_token(value[key])}"
            for key in sorted(value, key=repr)
        )
        return "{" + items + "}"
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(canonical_token(item) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(canonical_token(item) for item in value) + ")"
    if isinstance(value, float) and value.is_integer():
        # 2.0 and 2 name the same parameter value everywhere in the
        # library (k, probabilities at the endpoints, weights).
        return repr(int(value))
    return repr(value)


def params_token(
    algorithm: str | AlgorithmSpec, params: Mapping[str, Any] | None = None
) -> str:
    """Canonical token of one request's *complete* parameter dict.

    Normalizes through :func:`repro.api.normalized_params` (strict: a
    parameter the algorithm does not accept raises ``TypeError`` rather
    than silently hashing into nothing).
    """
    return canonical_token(normalized_params(algorithm, params))


def cache_key(
    algorithm: str | AlgorithmSpec,
    graph: nx.Graph | BulkGraph,
    seed: int | None = None,
    params: Mapping[str, Any] | None = None,
    graph_hash: str | None = None,
) -> str:
    """The content-addressed cache key of one solve request.

    A hex digest of ``(graph CSR content, algorithm name, normalized
    params, seed)``.  Callers that already hold the graph's fingerprint
    (the service hashes each distinct graph once) pass it via
    ``graph_hash`` to skip re-digesting the arrays.
    """
    spec = get_spec(algorithm)
    if graph_hash is None:
        graph_hash = graph_fingerprint(graph)
    return _digest(
        b"request",
        graph_hash.encode(),
        spec.name.encode(),
        params_token(spec, params).encode(),
        repr(seed).encode(),
    )


def coalesce_key(
    algorithm: str | AlgorithmSpec,
    graph: nx.Graph | BulkGraph,
    seed: int | None = None,
    params: Mapping[str, Any] | None = None,
    backend: str = "auto",
    graph_hash: str | None = None,
) -> str | None:
    """The batching key under which queued requests may share one engine run.

    Requests with equal coalesce keys differ *only* in their locality
    parameter ``k``: same graph, same seed, same remaining parameters,
    same requested backend.  The scheduler runs one multi-k snapshot
    execution for such a group -- per-k results are bitwise equal to
    independent runs (the PR-3 snapshot-engine invariant) -- and answers
    every member from it.

    Returns ``None`` when the request is not coalescible: the algorithm
    has no multi-k engine, ``k`` was left to the Θ(log Δ) default, the
    run records traces (single-run artifacts), or it injects faults (the
    fault schedules are sized to one run's round budget).
    """
    spec = get_spec(algorithm)
    if not spec.supports_multi_k:
        return None
    normalized = normalized_params(spec, params)
    if not isinstance(normalized.get("k"), int):
        return None
    if normalized.get("collect_trace") or normalized.get("faults") is not None:
        return None
    rest = {name: value for name, value in normalized.items() if name != "k"}
    if graph_hash is None:
        graph_hash = graph_fingerprint(graph)
    return _digest(
        b"coalesce",
        graph_hash.encode(),
        spec.name.encode(),
        canonical_token(rest).encode(),
        repr(seed).encode(),
        backend.encode(),
    )
