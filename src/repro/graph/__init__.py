"""Graph and geometry substrates: unit-disk networks, CDS tools, mobility."""

from .cellgrid import CellGrid, grid_is_exact
from .geometry import Area, Point, distance, grid_points, random_points
from .nodeindex import NodeIndex, flood_fill, popcount
from .topology import DeltaReport, Topology
from .unit_disk import (
    UnitDiskGraph,
    build_unit_disk_graph,
    edge_flips,
    range_for_average_degree,
    range_for_link_count,
)
from .generators import (
    GenerationError,
    grid_network,
    random_connected_network,
    random_grid_network,
    random_network,
)
from .bidirectional import (
    DirectedLinks,
    bidirectional_abstraction,
    links_from_ranges,
)
from .cds import greedy_cds, greedy_set_cover, is_cds, is_dominating_set
from .clustering import Clustering, cluster_backbone, lowest_id_clustering
from .io import (
    from_networkx,
    network_from_json,
    network_to_json,
    to_networkx,
)
from .mobility import RandomWaypointModel, SnapshotDelta
from .fliptrace import FlipStep, FlipTrace, record_flip_trace

__all__ = [
    "Area",
    "CellGrid",
    "grid_is_exact",
    "Point",
    "distance",
    "grid_points",
    "random_points",
    "NodeIndex",
    "flood_fill",
    "popcount",
    "DeltaReport",
    "Topology",
    "UnitDiskGraph",
    "build_unit_disk_graph",
    "edge_flips",
    "range_for_average_degree",
    "range_for_link_count",
    "GenerationError",
    "grid_network",
    "random_connected_network",
    "random_grid_network",
    "random_network",
    "DirectedLinks",
    "bidirectional_abstraction",
    "links_from_ranges",
    "greedy_cds",
    "greedy_set_cover",
    "is_cds",
    "is_dominating_set",
    "from_networkx",
    "network_from_json",
    "network_to_json",
    "to_networkx",
    "Clustering",
    "cluster_backbone",
    "lowest_id_clustering",
    "RandomWaypointModel",
    "SnapshotDelta",
    "FlipStep",
    "FlipTrace",
    "record_flip_trace",
]
