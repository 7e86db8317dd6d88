"""Stojmenovic, Seddigh and Zunic's algorithm.

Applies Wu & Li's marking process and Rules 1/2 proactively (with node
degree as the priority, as their paper prescribes) and combines it with an
SBA-style *neighbor elimination* during the broadcast: a static gateway
still withholds its transmission when, by the end of its backoff, all of
its neighbors are covered by visited neighbors.  Non-gateways never
forward.

The original exploits geographic positions to cut the marking's
information cost to 1-hop; topologically that is equivalent to the 2-hop
implementation used here (paper assumption 2 rules location information
out of scope).
"""

from __future__ import annotations

from typing import Set

from .base import BroadcastProtocol, NodeContext, Timing
from .sba import uncovered_neighbors
from .wu_li import is_marked, rule1_applies, rule2_applies

__all__ = ["Stojmenovic"]


class Stojmenovic(BroadcastProtocol):
    """Static marking + Rules 1/2, then dynamic neighbor elimination."""

    name = "stojmenovic"
    timing = Timing.FIRST_RECEIPT_BACKOFF
    hops = 2
    piggyback_h = 0

    def __init__(self, backoff_window: float = 10.0) -> None:
        self.backoff_window = backoff_window
        self._gateways: Set[int] = set()

    @property
    def gateways(self) -> Set[int]:
        """The statically marked (and rule-pruned) gateway set."""
        return set(self._gateways)

    def prepare(self, env) -> None:
        self._gateways = set()
        for node in env.graph.nodes():
            view = env.make_view(
                env.view_graph(node, self.hops), frozenset(), frozenset()
            )
            if not is_marked(view, node):
                continue
            if rule1_applies(view, node) or rule2_applies(view, node):
                continue
            self._gateways.add(node)

    def should_forward(self, ctx: NodeContext) -> bool:
        if ctx.node not in self._gateways:
            return False
        return bool(uncovered_neighbors(ctx))
