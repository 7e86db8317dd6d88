"""The generic framework instances (Algorithm 1) at every timing/selection.

These are the protocols labelled "Generic" in the paper's figures plus the
building blocks of Figures 10-13:

* :class:`GenericSelfPruning` — the full coverage condition checked by each
  node itself, at any timing (Static / FR / FRB / FRBD) and any view radius
  (including the global view);
* :class:`GenericStatic` — the proactive variant: forward sets computed
  from static local views before any broadcast;
* :class:`GenericNeighborDesignating` — the strict neighbor-designating
  instance: only designated nodes forward, each forwarder greedily
  designates 1-hop neighbors to cover its uncovered 2-hop neighborhood.

Per Section 7.2, the dynamic Generic instances piggyback ``h = 2`` recently
visited nodes ("each node also knows the second last visited node").
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from ..core.coverage import coverage_condition, strong_coverage_condition
from ..core.views import View
from .base import BroadcastProtocol, NodeContext, Timing
from .designation import greedy_cover_designation
from .static_base import StaticSelfPruningProtocol

__all__ = [
    "GenericSelfPruning",
    "GenericStatic",
    "GenericNeighborDesignating",
]

_TIMING_LABEL = {
    Timing.STATIC: "static",
    Timing.FIRST_RECEIPT: "fr",
    Timing.FIRST_RECEIPT_BACKOFF: "frb",
    Timing.FIRST_RECEIPT_BACKOFF_DEGREE: "frbd",
}


class GenericSelfPruning(BroadcastProtocol):
    """Self-pruning with the generic (or strong) coverage condition.

    Parameters
    ----------
    timing:
        Any of the four timing options.  ``STATIC`` here still evaluates at
        receipt time but on the static view — prefer :class:`GenericStatic`
        for a faithful proactive protocol; it produces identical forward
        sets.
    hops:
        View radius ``k``; ``None`` selects the global view.
    strong:
        Use the O(D^2) strong coverage condition instead of the full O(D^3)
        condition.
    """

    strict_designation = False

    def __init__(
        self,
        timing: Timing = Timing.FIRST_RECEIPT,
        hops: Optional[int] = 2,
        strong: bool = False,
        piggyback_h: int = 2,
        backoff_window: float = 10.0,
    ) -> None:
        self.timing = timing
        self.hops = hops
        self.strong = strong
        self.piggyback_h = piggyback_h
        self.backoff_window = backoff_window
        radius = "global" if hops is None else f"{hops}hop"
        condition = "strong" if strong else "coverage"
        self.name = f"generic-sp-{_TIMING_LABEL[timing]}-{radius}-{condition}"

    def should_forward(self, ctx: NodeContext) -> bool:
        view = (
            ctx.static_view() if self.timing is Timing.STATIC else ctx.view()
        )
        condition = (
            strong_coverage_condition if self.strong else coverage_condition
        )
        return not condition(view, ctx.node)


class GenericStatic(StaticSelfPruningProtocol):
    """Proactive generic framework: forward sets from static local views.

    ``prepare`` evaluates the coverage condition for every node on its own
    static k-hop view; the broadcast then simply relays over the resulting
    forward node set.  This is the "Static" series of Figure 10 and the
    "Generic" entry of Figure 14.
    """

    def __init__(
        self,
        hops: Optional[int] = 2,
        strong: bool = False,
    ) -> None:
        super().__init__()
        self.hops = hops
        self.strong = strong
        radius = "global" if hops is None else f"{hops}hop"
        condition = "strong" if strong else "coverage"
        self.name = f"generic-static-{radius}-{condition}"

    def is_non_forward(self, view: View, node: int) -> bool:
        condition = (
            strong_coverage_condition if self.strong else coverage_condition
        )
        return condition(view, node)

    def prepare(self, env) -> None:
        nodes = env.graph.nodes()
        if self.hops is not None or not nodes:
            super().prepare(env)
            return
        # The global view is node-independent, so one shared view serves
        # every node.  Its second decider triggers one decreasing-priority
        # sweep (in the bitset kernel) that answers every node, instead
        # of a decomposition per node.  Verdicts are unchanged: the
        # per-node views were equal value objects.
        view = env.make_view(
            env.view_graph(nodes[0], None), frozenset(), frozenset()
        )
        self._forward_set = {
            node for node in nodes if not self.is_non_forward(view, node)
        }


class GenericNeighborDesignating(BroadcastProtocol):
    """Strict neighbor-designating instance of the generic framework.

    Only designated nodes (and the source) forward.  A forwarding node
    ``v`` designates, from the candidates ``N(v) − N(u) − {u}`` minus
    already-visited nodes, a greedy minimal subset covering the 2-hop
    neighbors not already covered by ``u`` or other known visited nodes.
    This is the "ND" series of Figure 11.
    """

    timing = Timing.FIRST_RECEIPT
    strict_designation = True
    hops = 2
    piggyback_h = 1

    def __init__(self) -> None:
        self.name = "generic-nd"

    def should_forward(self, ctx: NodeContext) -> bool:
        return False

    def designate(self, ctx: NodeContext) -> FrozenSet[int]:
        graph = ctx.view_graph
        node = ctx.node
        index, masks = graph.adjacency_masks()
        neighbors_mask = masks[index.position(node)]
        targets_mask = (
            graph.k_hop_mask(node, 2) & ~neighbors_mask & ~index.bit(node)
        )
        candidates = (
            set(index.members(neighbors_mask))
            - ctx.known_visited
            - ctx.known_designated
        )
        sender = ctx.first_sender
        if sender is not None and sender in index:
            sender_closed = (
                masks[index.position(sender)] | index.bit(sender)
            )
            candidates -= set(index.members(sender_closed))
            targets_mask &= ~sender_closed
        # 2-hop targets already covered by known visited nodes or by nodes
        # someone already designated (under the strict rule those are
        # guaranteed to forward, so their neighborhoods are handled).
        for handled in ctx.known_visited | ctx.known_designated:
            if handled in index:
                targets_mask &= ~(
                    masks[index.position(handled)] | index.bit(handled)
                )
        targets = set(index.members(targets_mask))
        return greedy_cover_designation(graph, candidates, targets)
