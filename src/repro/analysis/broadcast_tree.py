"""Broadcast tree extraction and shape statistics.

From a traced broadcast, reconstruct the *delivery tree*: every node's
parent is the sender of the first copy it received.  The tree's depth
is the hop-latency profile, its internal nodes are the forward set, and
its branching factors show how the protocol spreads duty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..sim.engine import BroadcastOutcome
from ..sim.events import Deliver

__all__ = ["BroadcastTree", "build_broadcast_tree"]


@dataclass
class BroadcastTree:
    """The first-delivery tree of one broadcast."""

    root: int
    #: Child -> parent (the sender of the child's first copy).
    parents: Dict[int, int] = field(default_factory=dict)

    def children(self, node: int) -> List[int]:
        """Nodes whose first copy came from ``node``."""
        return sorted(
            child for child, parent in self.parents.items() if parent == node
        )

    def depth_of(self, node: int) -> int:
        """Hops from the root to ``node`` along first deliveries."""
        depth = 0
        current = node
        while current != self.root:
            current = self.parents[current]
            depth += 1
            if depth > len(self.parents) + 1:
                raise ValueError("parent map contains a cycle")
        return depth

    def depth(self) -> int:
        """The deepest delivery (hop count of the slowest node)."""
        if not self.parents:
            return 0
        return max(self.depth_of(node) for node in self.parents)

    def internal_nodes(self) -> Set[int]:
        """Nodes with at least one child — the effective forwarders."""
        return set(self.parents.values())

    def mean_branching(self) -> float:
        """Average children per internal node."""
        internal = self.internal_nodes()
        if not internal:
            return 0.0
        return len(self.parents) / len(internal)

    def nodes(self) -> Set[int]:
        """All nodes the tree spans (root included)."""
        return set(self.parents) | {self.root}


def build_broadcast_tree(outcome: BroadcastOutcome) -> BroadcastTree:
    """Reconstruct the first-delivery tree from a recorded outcome.

    Consumes the typed :class:`~repro.sim.events.Deliver` events on
    ``outcome.events``; requires the session to have been run with
    ``collect_trace=True`` (or an explicit recording bus), and raises
    ``ValueError`` otherwise.
    """
    if outcome.events is None:
        raise ValueError(
            "broadcast tree needs recorded events; run the session with "
            "collect_trace=True"
        )
    tree = BroadcastTree(root=outcome.source)
    for event in outcome.events:
        if not isinstance(event, Deliver):
            continue
        node = event.node
        if node == outcome.source or node in tree.parents:
            continue
        tree.parents[node] = event.sender
    return tree
