"""Connected dominating set validation and backbone statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

import networkx as nx

from repro.domset.validation import is_dominating_set
from repro.graphs.utils import is_bulk_graph


def is_connected_dominating_set(graph: nx.Graph, candidate: Iterable[Hashable]) -> bool:
    """Whether ``candidate`` dominates ``graph`` and induces a connected subgraph.

    By convention a single-node candidate on a single-component graph is
    connected; the empty set is never a CDS of a non-empty graph.  For a
    *disconnected* input graph no connected dominating set exists (every
    component needs a dominator, and dominators in different components
    cannot be connected), so the function returns ``False``.

    ``graph`` may also be a CSR :class:`~repro.simulator.bulk.BulkGraph`;
    the domination and induced-connectivity checks then run as array
    sweeps without materialising a networkx object.
    """
    members = set(candidate)
    if not members:
        return False
    if is_bulk_graph(graph):
        from repro.cds.bulk import is_connected_dominating_set_bulk

        return is_connected_dominating_set_bulk(graph, graph.member_mask(members))
    if not is_dominating_set(graph, members):
        return False
    induced = graph.subgraph(members)
    return nx.is_connected(induced)


@dataclass(frozen=True)
class BackboneStatistics:
    """Routing-oriented statistics of a (connected) dominating backbone.

    Attributes
    ----------
    size:
        Number of backbone nodes.
    is_dominating:
        Whether the backbone dominates the graph.
    is_connected:
        Whether the backbone induces a connected subgraph.
    diameter:
        Diameter of the induced backbone (None when not connected).
    mean_backbone_degree:
        Average degree inside the backbone (how well-meshed the routers are).
    stretch:
        Worst-case ratio between the length of the backbone-constrained
        route and the shortest path in the full graph, over a sample of node
        pairs (None when not connected).  A backbone route goes from the
        source to an adjacent backbone node, across the backbone, and down
        to the target.
    """

    size: int
    is_dominating: bool
    is_connected: bool
    diameter: int | None
    mean_backbone_degree: float
    stretch: float | None


def backbone_statistics(
    graph: nx.Graph,
    backbone: Iterable[Hashable],
    sample_pairs: int = 50,
    seed: int = 0,
) -> BackboneStatistics:
    """Compute :class:`BackboneStatistics` for a candidate backbone.

    Parameters
    ----------
    graph:
        The full communication graph.
    backbone:
        The backbone (cluster head / router) nodes.
    sample_pairs:
        Number of random node pairs used for the stretch estimate.
    seed:
        Seed for the pair sample.

    ``graph`` may also be a CSR :class:`~repro.simulator.bulk.BulkGraph`:
    the statistics then come from CSR frontier BFS
    (:func:`repro.cds.bulk.backbone_statistics_bulk`) -- identical values
    (same pair sample, same hop counts), no networkx materialisation, so
    backbone reporting joins the rest of the bulk CDS path at n ≥ 20 000.
    """
    import random

    if is_bulk_graph(graph):
        from repro.cds.bulk import backbone_statistics_bulk

        return backbone_statistics_bulk(
            graph, backbone, sample_pairs=sample_pairs, seed=seed
        )

    members = set(backbone)
    dominating = bool(members) and is_dominating_set(graph, members)
    induced = graph.subgraph(members)
    connected = bool(members) and nx.is_connected(induced)

    diameter = None
    stretch = None
    if connected and len(members) > 0:
        diameter = nx.diameter(induced) if len(members) > 1 else 0

        # Stretch: route via the backbone vs. the direct shortest path.
        rng = random.Random(seed)
        nodes = sorted(graph.nodes())
        backbone_graph = graph.subgraph(members)
        worst = 1.0
        for _ in range(sample_pairs):
            source, target = rng.choice(nodes), rng.choice(nodes)
            if source == target or not nx.has_path(graph, source, target):
                continue
            direct = nx.shortest_path_length(graph, source, target)
            if direct == 0:
                continue
            source_heads = members.intersection({source, *graph.neighbors(source)})
            target_heads = members.intersection({target, *graph.neighbors(target)})
            if not source_heads or not target_heads:
                continue
            best_backbone = None
            for head_s in source_heads:
                for head_t in target_heads:
                    if nx.has_path(backbone_graph, head_s, head_t):
                        length = nx.shortest_path_length(backbone_graph, head_s, head_t)
                        hops = length + (source not in members) + (target not in members)
                        if best_backbone is None or hops < best_backbone:
                            best_backbone = hops
            if best_backbone is not None:
                worst = max(worst, best_backbone / direct)
        stretch = worst

    mean_degree = (
        sum(dict(induced.degree()).values()) / max(len(members), 1) if members else 0.0
    )
    return BackboneStatistics(
        size=len(members),
        is_dominating=dominating,
        is_connected=connected,
        diameter=diameter,
        mean_backbone_degree=mean_degree,
        stretch=stretch,
    )
