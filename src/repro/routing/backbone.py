"""Unicast routing over a CDS virtual backbone.

The paper motivates the static approach with exactly this application:
"the static approach produces a relatively stable CDS that forms a
virtual backbone, which facilitates both broadcasting and unicasting."
A :class:`BackboneRouter` wraps a graph plus a CDS: routes enter the
backbone at the source, travel only through backbone nodes, and exit at
the destination — so only the (small, stable) backbone must maintain
routing state.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..graph.cds import is_cds
from ..graph.topology import Topology

__all__ = ["BackboneRouter"]


class BackboneRouter:
    """Routes unicast traffic through a connected dominating set.

    Parameters
    ----------
    graph:
        The full network topology.
    backbone:
        A CDS of ``graph`` (validated on construction).

    The router precomputes, per backbone node, a BFS tree within the
    backbone — the routing tables a real deployment would maintain only
    on backbone nodes.
    """

    def __init__(self, graph: Topology, backbone: Iterable[int]) -> None:
        self.graph = graph
        self.backbone: Set[int] = set(backbone)
        if not is_cds(graph, self.backbone):
            raise ValueError("backbone must be a connected dominating set")
        self._core = graph.subgraph(self.backbone) if self.backbone else Topology()

    def attachment_points(self, node: int) -> Set[int]:
        """Backbone nodes adjacent to ``node`` (or ``node`` itself)."""
        if node in self.backbone:
            return {node}
        return set(self.graph.neighbors(node) & self.backbone)

    def route(self, source: int, target: int) -> Optional[List[int]]:
        """A source → target path whose interior stays in the backbone.

        Returns ``None`` only when the endpoints are disconnected (which
        a valid CDS on a connected graph rules out).  Direct neighbors
        short-circuit without entering the backbone.
        """
        if source == target:
            return [source]
        if self.graph.has_edge(source, target):
            return [source, target]
        best: Optional[List[int]] = None
        for entry in sorted(self.attachment_points(source)):
            for exit_point in sorted(self.attachment_points(target)):
                core_path = self._core_path(entry, exit_point)
                if core_path is None:
                    continue
                path = []
                if source not in self.backbone:
                    path.append(source)
                path.extend(core_path)
                if target not in self.backbone:
                    path.append(target)
                if best is None or len(path) < len(best):
                    best = path
        return best

    def _core_path(self, a: int, b: int) -> Optional[List[int]]:
        if a == b:
            return [a]
        return self._core.shortest_path(a, b)

    def stretch(self, source: int, target: int) -> float:
        """Backbone route length over shortest-path length.

        1.0 means the backbone detour is free; the stretch of a good CDS
        stays small.  Raises if the pair is disconnected.
        """
        direct = self.graph.shortest_path(source, target)
        if direct is None:
            raise ValueError(f"{source} and {target} are disconnected")
        if len(direct) == 1:
            return 1.0
        routed = self.route(source, target)
        assert routed is not None  # CDS on a connected graph
        return (len(routed) - 1) / (len(direct) - 1)

    def mean_stretch(self, pairs: Iterable[tuple]) -> float:
        """Average stretch over the given (source, target) pairs."""
        values = [self.stretch(s, t) for s, t in pairs]
        if not values:
            raise ValueError("no pairs supplied")
        return sum(values) / len(values)
