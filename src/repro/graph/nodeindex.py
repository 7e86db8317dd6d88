"""Node-indexed bitmask primitives for the coverage hot path.

Every dense-graph kernel in the library — coverage-condition checks,
higher-priority component extraction, k-hop frontiers — reduces to set
algebra over subsets of a *fixed* node universe.  Python's arbitrary
precision integers make those operations machine-word-parallel: a subset
of an ``n``-node graph is one ``n``-bit integer, intersection is ``&``,
union is ``|``, domination is ``targets & ~cover == 0``, and a BFS
frontier expansion is a single ``|`` per frontier node instead of a
per-edge set insert.

:class:`NodeIndex` pins the node-id → bit-position mapping.  The mapping
is *stable* for the life of the index (positions follow the graph's node
insertion order), so masks produced against the same index are mutually
compatible; a change to the underlying graph's *node set* must produce a
fresh index (see ``Topology.node_index`` — a structural mutation clears
the topology's query cache, the index included).  Deltas keep the index:
``Topology.apply_delta`` flips links among the existing nodes, so it
patches just the affected adjacency rows of the cached mask table
(:func:`patch_rows`) and every retained mask stays comparable across the
delta.

A k-hop view graph is born as a mask table: ``Topology.k_hop_view_graph``
indexes the view by the order of a truncated BFS from its centre (the
view's node insertion order; the BFS itself is not kept, the index is
its record) and writes each row straight in view positions, so the
view's masks never pass through node ids on their way to the coverage
kernel.  Induced subgraphs are built the same way.

Masks are plain ``int`` values: share them freely, but treat any mask
table obtained from a :class:`~repro.graph.topology.Topology` as a
read-only snapshot — it is cached and shared between callers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

__all__ = ["NodeIndex", "flood_fill", "patch_rows", "popcount"]


if hasattr(int, "bit_count"):  # Python >= 3.10

    def popcount(mask: int) -> int:
        """Number of set bits (members) of ``mask``."""
        return mask.bit_count()

else:  # pragma: no cover - exercised only on Python 3.9

    def popcount(mask: int) -> int:
        """Number of set bits (members) of ``mask``."""
        return bin(mask).count("1")


class NodeIndex:
    """A stable node-id → bit-position mapping over a fixed universe.

    Bit positions follow the iteration order of ``nodes`` at construction
    time.  Two masks are comparable only when built against the same
    index instance (or an equal one): the index *is* the coordinate
    system.
    """

    __slots__ = ("_nodes", "_positions")

    def __init__(self, nodes: Iterable[int]) -> None:
        self._nodes: Tuple[int, ...] = tuple(nodes)
        self._positions: Dict[int, int] = {
            node: position for position, node in enumerate(self._nodes)
        }
        if len(self._positions) != len(self._nodes):
            raise ValueError("duplicate node ids in index universe")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._positions

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeIndex({len(self._nodes)} nodes)"

    @property
    def nodes(self) -> Tuple[int, ...]:
        """The universe, in bit-position order."""
        return self._nodes

    # ------------------------------------------------------------------

    def position(self, node: int) -> int:
        """The bit position of ``node``; raise ``KeyError`` if unknown."""
        return self._positions[node]

    def node_at(self, position: int) -> int:
        """The node occupying ``position``."""
        return self._nodes[position]

    def bit(self, node: int) -> int:
        """The singleton mask ``1 << position(node)``."""
        return 1 << self._positions[node]

    def mask_of(self, nodes: Iterable[int]) -> int:
        """The mask holding every node of ``nodes`` (all must be known)."""
        positions = self._positions
        mask = 0
        for node in nodes:
            mask |= 1 << positions[node]
        return mask

    def universe(self) -> int:
        """The full mask ``(1 << n) - 1`` over the whole universe."""
        return (1 << len(self._nodes)) - 1

    def members(self, mask: int) -> List[int]:
        """The node ids of ``mask``'s set bits, in bit-position order."""
        nodes = self._nodes
        out: List[int] = []
        while mask:
            low = mask & -mask
            out.append(nodes[low.bit_length() - 1])
            mask ^= low
        return out


def patch_rows(
    index: NodeIndex,
    masks: Tuple[int, ...],
    rows: Mapping[int, Iterable[int]],
) -> Tuple[int, ...]:
    """A copy of ``masks`` with the given adjacency rows rebuilt.

    ``rows`` maps node id → its new neighbor iterable; every other row is
    carried over untouched.  Used by ``Topology.apply_delta`` to update a
    cached mask table in place of a full O(n + m) rebuild when only the
    changed edges' endpoint rows differ — the :class:`NodeIndex` itself
    (and therefore every mask's coordinate system) is unchanged.
    """
    patched = list(masks)
    for node, adjacent in rows.items():
        patched[index.position(node)] = index.mask_of(adjacent)
    return tuple(patched)


def flood_fill(seed: int, allowed: int, masks: Tuple[int, ...]) -> int:
    """The connected component of ``seed`` within ``allowed``.

    ``masks`` is a bit-position-indexed adjacency table (``masks[p]`` is
    the neighbor mask of the node at position ``p``).  Grows the seed
    mask by OR-ing the adjacency rows of each frontier node, restricted
    to ``allowed``, until the frontier is empty — a word-parallel BFS
    that replaces a union-find pass over the same subgraph.

    ``seed`` may hold several bits; the result is then the union of the
    components touched by any of them.  ``seed`` is not required to be a
    subset of ``allowed`` — its bits are kept regardless.
    """
    component = 0
    frontier = seed
    while frontier:
        component |= frontier
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & allowed & ~component
    return component
