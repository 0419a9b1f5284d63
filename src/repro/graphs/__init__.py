"""Graph substrate: generators and neighbourhood helpers.

The paper's algorithms run on arbitrary undirected graphs; their motivation
is wireless ad-hoc networks, which are conventionally modelled as unit disk
graphs.  This package provides:

* :mod:`~repro.graphs.generators` -- the synthetic graph families used by
  the test suite and the benchmarks (Erdős–Rényi, random regular, grids,
  stars/cliques, caterpillars, power-law trees, bounded-degree graphs, and
  the star-of-cliques construction used for the Figure-1 experiment).
* :mod:`~repro.graphs.unit_disk` -- unit disk graphs with controllable
  density, the canonical ad-hoc-network model.
* :mod:`~repro.graphs.mobility` -- a random-waypoint mobility model that
  produces a sequence of unit disk graphs (used by the dynamic-topology
  example).
* :mod:`~repro.graphs.utils` -- the paper's notation as code: δ_i, δ⁽¹⁾_i,
  δ⁽²⁾_i and closed neighbourhoods N_i.
"""

from repro.graphs.generators import (
    GraphFamily,
    bounded_degree_graph,
    caterpillar_graph,
    clique_chain,
    cycle_graph,
    erdos_renyi_graph,
    graph_suite,
    grid_graph,
    path_graph,
    power_law_tree,
    random_bipartite_graph,
    random_regular_graph,
    star_graph,
    star_of_cliques,
    two_level_star,
)
from repro.graphs.bulk import (
    bulk_caterpillar_graph,
    bulk_erdos_renyi_graph,
    bulk_graph_suite,
    bulk_grid_graph,
    bulk_unit_disk_graph,
)
from repro.graphs.mobility import MobilityTrace, random_waypoint_trace
from repro.graphs.unit_disk import (
    random_unit_disk_graph,
    random_unit_disk_positions,
    unit_disk_edges,
    unit_disk_graph,
)
from repro.graphs.utils import (
    closed_neighborhood,
    closed_neighborhoods,
    degree_map,
    delta_one,
    delta_two,
    max_degree,
)

__all__ = [
    "GraphFamily",
    "MobilityTrace",
    "bounded_degree_graph",
    "bulk_caterpillar_graph",
    "bulk_erdos_renyi_graph",
    "bulk_graph_suite",
    "bulk_grid_graph",
    "bulk_unit_disk_graph",
    "caterpillar_graph",
    "clique_chain",
    "closed_neighborhood",
    "closed_neighborhoods",
    "cycle_graph",
    "degree_map",
    "delta_one",
    "delta_two",
    "erdos_renyi_graph",
    "graph_suite",
    "grid_graph",
    "max_degree",
    "path_graph",
    "power_law_tree",
    "random_bipartite_graph",
    "random_regular_graph",
    "random_unit_disk_graph",
    "random_unit_disk_positions",
    "random_waypoint_trace",
    "star_graph",
    "star_of_cliques",
    "two_level_star",
    "unit_disk_edges",
    "unit_disk_graph",
]
