"""Mobility management via conservative views.

The paper evaluates static topologies and defers mobility to follow-up
work, noting that "the effect of moderate mobility can be balanced by a
slight increase in the broadcast redundancy."  This module implements
that increase in a principled way, following the conservative-view idea
of Wu & Dai's mobility-management line of work:

given two consecutive topology snapshots (two hello periods), a node's
*conservative* local view

* demands coverage for the **union** of its neighbor sets — any node
  that was recently in range might still need the packet, and
* admits replacement paths only through links present in **both**
  snapshots — only links that survived the sampling interval are trusted
  to carry the replacement.

A node that prunes itself under this view is safe against any topology
that lies "between" the snapshots: if the network at broadcast time has
all the surviving links and no neighbors beyond the union, the pruned
node's coverage condition holds in reality too (asserted by the property
tests for both endpoint topologies).  The price is a larger forward set
— exactly the redundancy increase the paper predicts.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from ..graph.topology import Topology
from .coverage import coverage_condition
from .priority import PriorityScheme
from .views import View, _restrict_metrics, _stated_view

__all__ = [
    "conservative_view_graph",
    "conservative_local_view",
    "conservative_forward_set",
]


def conservative_view_graph(
    old: Topology, new: Topology, center: int, k: Optional[int] = 2
) -> Topology:
    """The conservative k-hop view of ``center`` across two snapshots.

    Nodes: the union of both snapshots' k-hop views.  Links: those
    present in **both** views, plus ``center``'s own links to the union
    of its neighbor sets (so the coverage condition must account for
    every recent neighbor).
    """
    if center not in old or center not in new:
        raise KeyError(f"node {center} missing from a snapshot")
    old_view = old if k is None else old.k_hop_view_graph(center, k)
    new_view = new if k is None else new.k_hop_view_graph(center, k)
    graph = Topology(nodes=set(old_view.nodes()) | set(new_view.nodes()))
    for u, v in old_view.edges():
        if new_view.has_edge(u, v):
            graph.add_edge(u, v)
    union_neighbors = old_view.neighbors(center) | new_view.neighbors(center)
    for u in union_neighbors:
        graph.add_edge(center, u)
    return graph


def conservative_local_view(
    old: Topology,
    new: Topology,
    center: int,
    k: Optional[int],
    scheme: PriorityScheme,
    visited: Iterable[int] = (),
    designated: Iterable[int] = (),
) -> View:
    """A :class:`View` over the conservative view graph.

    Priority metrics are the ones nodes advertised in the *old* snapshot
    — the information actually available when the decision is made.
    """
    graph = conservative_view_graph(old, new, center, k)
    padding = scheme.padding()
    return _stated_view(
        graph,
        visited,
        designated,
        _restrict_metrics(scheme.metrics(old), graph, padding),
        padding,
    )


def conservative_forward_set(
    old: Topology,
    new: Topology,
    scheme: PriorityScheme,
    k: Optional[int] = 2,
) -> Set[int]:
    """The static forward set under conservative per-node views.

    Every node evaluates the coverage condition on its own conservative
    view; nodes failing it form the forward set.  The result covers both
    endpoint topologies (Theorem 2 applies to each, because each node's
    conservative view is a sub-view — fewer links, more neighbors to
    cover — of its exact local view in either snapshot).
    """
    table = scheme.metrics(old)
    padding = scheme.padding()
    shared = set(old.nodes()) & set(new.nodes())
    forward: Set[int] = set()
    for node in shared:
        graph = conservative_view_graph(old, new, node, k)
        view = _stated_view(
            graph, (), (), _restrict_metrics(table, graph, padding), padding
        )
        if not coverage_condition(view, node):
            forward.add(node)
    # Nodes present in only one snapshot have no mobility information;
    # they stay forward (the safe default).
    forward |= (set(old.nodes()) ^ set(new.nodes()))
    return forward
