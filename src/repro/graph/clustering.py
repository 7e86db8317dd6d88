"""Lowest-ID clustering (Lin & Gerla style).

Paper assumption 5 keeps networks relatively sparse and points at clustering
as the standard densification escape hatch: "for a dense ad hoc network, the
clustering approach can be used to convert the dense graph to a sparse one."
This module implements the classic lowest-ID cluster formation and the
derived sparse backbone graph, so the library covers that substrate too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from .topology import Topology

__all__ = ["Clustering", "lowest_id_clustering", "cluster_backbone"]


@dataclass
class Clustering:
    """The outcome of a cluster formation pass.

    Attributes
    ----------
    heads:
        Clusterhead node ids.
    membership:
        Every node id mapped to its clusterhead (heads map to themselves).
    gateways:
        Selected border nodes — one connecting edge per pair of
        neighboring clusters — that glue the backbone together.
    """

    heads: Set[int]
    membership: Dict[int, int]
    gateways: Set[int]

    def members_of(self, head: int) -> Set[int]:
        """All nodes (including the head) assigned to ``head``'s cluster."""
        if head not in self.heads:
            raise KeyError(f"{head} is not a clusterhead")
        return {node for node, h in self.membership.items() if h == head}


def lowest_id_clustering(graph: Topology) -> Clustering:
    """Classic lowest-ID clustering.

    Processing nodes in increasing id order, a node becomes a clusterhead
    when no smaller-id neighbor has already been assigned head status; every
    other node joins the smallest-id head in its neighborhood.  The result
    is a maximal independent set of heads plus a membership map.
    """
    heads: Set[int] = set()
    membership: Dict[int, int] = {}
    for node in sorted(graph.nodes()):
        head_neighbors = graph.neighbors(node) & heads
        if head_neighbors:
            membership[node] = min(head_neighbors)
        else:
            heads.add(node)
            membership[node] = node

    # Gateway selection: for every pair of neighboring clusters keep only
    # the lexicographically smallest connecting edge — one (distributed)
    # gateway pair per cluster border, not every border node.  This keeps
    # the backbone sparse even in dense deployments while preserving
    # inter-cluster connectivity.
    border_edges: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for u, v in graph.edges():
        cu, cv = membership[u], membership[v]
        if cu == cv:
            continue
        pair = (min(cu, cv), max(cu, cv))
        edge = (min(u, v), max(u, v))
        if pair not in border_edges or edge < border_edges[pair]:
            border_edges[pair] = edge
    gateways: Set[int] = set()
    for u, v in border_edges.values():
        gateways.add(u)
        gateways.add(v)
    gateways -= heads
    return Clustering(heads=heads, membership=membership, gateways=gateways)


def cluster_backbone(graph: Topology, clustering: Clustering) -> Topology:
    """The sparse backbone induced by clusterheads and gateways.

    Contains every clusterhead and gateway, with the edges of ``graph``
    restricted to those nodes.  Broadcasting over the backbone instead of
    the full dense graph is the paper's recipe for high-density deployments.
    """
    backbone_nodes = clustering.heads | clustering.gateways
    return graph.subgraph(backbone_nodes)
