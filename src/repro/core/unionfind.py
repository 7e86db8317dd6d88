"""Disjoint-set (union-find) structures used by the coverage machinery."""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..instrument import _STACK as _COUNTER_STACK

if TYPE_CHECKING:
    from ..graph.topology import Topology

__all__ = ["DisjointSet", "priority_sweep"]

T = TypeVar("T", bound=Hashable)


class DisjointSet:
    """Union-find with path compression and union by size.

    Elements are created lazily on first touch, so callers can union and
    find without a separate registration pass.
    """

    def __init__(self, elements: Iterable[T] = ()) -> None:
        self._parent: Dict[T, T] = {}
        self._size: Dict[T, int] = {}
        for element in elements:
            self.add(element)

    def add(self, element: T) -> None:
        """Register ``element`` as its own singleton set (idempotent)."""
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1

    def __contains__(self, element: T) -> bool:
        return element in self._parent

    def find(self, element: T) -> T:
        """The canonical representative of ``element``'s set."""
        self.add(element)
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: T, b: T) -> T:
        """Merge the sets of ``a`` and ``b``; return the new representative."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def connected(self, a: T, b: T) -> bool:
        """Whether ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    def groups(self) -> List[Set[T]]:
        """All current sets."""
        by_root: Dict[T, Set[T]] = {}
        for element in self._parent:
            by_root.setdefault(self.find(element), set()).add(element)
        return list(by_root.values())


def priority_sweep(
    graph: "Topology", order: Sequence[int]
) -> Iterator[Tuple[int, List[int], bool]]:
    """Every node's uncovered pairs and strong verdict, in one sweep.

    Nodes are named by their bit positions in ``graph.node_index()``, and
    ``order`` lists every position by decreasing priority.  The sweep
    inserts positions in that order into a union-find.  Priority
    keys are a total order (the id breaks ties), so when ``p`` is reached
    the inserted positions are exactly those ranking above ``p``, and the
    union-find *is* ``p``'s higher-priority component decomposition.  One
    O((n + m)·α) pass thus replaces ``n`` independent decompositions:

    * a neighbour ``u`` *reaches* the components whose roots appear in its
      inserted closed neighbourhood, so the pair ``(u, w)`` has a
      replacement path iff their root sets meet (or the edge exists);
    * a component dominates ``N(p)`` iff its root is in every neighbour's
      root set, so the strong verdict is "the root sets share a root"
      (vacuously true with no neighbours).

    Yields ``(p, failing, strong)`` in ``order``, where ``failing`` is the
    flat list ``[u0, w0, u1, w1, ...]`` of ``p``'s uncovered pairs, each
    with ``u`` before ``w`` and listed in node-id order.
    """
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].component_decompositions += 1
    index = graph.node_index()
    position = index.position
    neighbors = [
        [position(u) for u in sorted(graph.neighbors(node))]
        for node in index.nodes
    ]
    parents = list(range(len(neighbors)))
    inserted = bytearray(len(neighbors))
    linked = [set(row) for row in neighbors]

    def find(x: int) -> int:
        # Path halving.
        while parents[x] != x:
            parents[x] = parents[parents[x]]
            x = parents[x]
        return x

    for p in order:
        adjacent = neighbors[p]
        reach: List[Set[int]] = []
        for u in adjacent:
            roots = {find(x) for x in neighbors[u] if inserted[x]}
            if inserted[u]:
                roots.add(find(u))
            reach.append(roots)
        failing: List[int] = []
        count = len(adjacent)
        for i in range(count - 1):
            u = adjacent[i]
            reach_u = reach[i]
            linked_u = linked[u]
            for j in range(i + 1, count):
                w = adjacent[j]
                if w in linked_u or not reach_u.isdisjoint(reach[j]):
                    continue
                failing += (u, w)
        yield p, failing, not reach or bool(set.intersection(*reach))
        inserted[p] = 1
        for x in adjacent:
            if inserted[x]:
                root_p, root_x = find(p), find(x)
                if root_p != root_x:
                    parents[root_p] = root_x
