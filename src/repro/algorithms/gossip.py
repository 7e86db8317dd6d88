"""Probabilistic (gossip) broadcasting — the paper's contrast class.

The introduction sets deterministic pruning against the probabilistic
approach: "each node, upon receiving a broadcast packet, forwards the
packet with probability p ... the probabilistic approach cannot guarantee
full coverage" and conservative choices of ``p`` "yield a relatively
large forward node set."  This module implements that baseline so the
claim is measurable: :class:`Gossip` forwards with fixed probability
``p``, optionally always forwarding for the first ``sure_hops`` hops
(the standard GOSSIP1(p, k) refinement that protects the early phase,
where a single unlucky coin flip kills the whole broadcast).

Gossip is intentionally **not** part of the coverage-guaranteeing
registry: its delivery ratio is a random variable, which is exactly the
point of the comparison example and the reliability benchmarks.
"""

from __future__ import annotations

from .base import BroadcastProtocol, NodeContext, Timing

__all__ = ["Gossip"]


class Gossip(BroadcastProtocol):
    """Forward with probability ``p`` on first receipt.

    Parameters
    ----------
    p:
        Forwarding probability in [0, 1].
    sure_hops:
        Nodes whose first copy travelled fewer than this many hops
        forward deterministically (GOSSIP1(p, k)); 0 disables the guard.
    """

    timing = Timing.FIRST_RECEIPT
    hops = 1
    piggyback_h = 0

    def __init__(self, p: float = 0.7, sure_hops: int = 1) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if sure_hops < 0:
            raise ValueError(f"sure_hops must be non-negative, got {sure_hops}")
        self.p = p
        self.sure_hops = sure_hops
        self.name = f"gossip-{p:g}"

    def should_forward(self, ctx: NodeContext) -> bool:
        if self.sure_hops and ctx.first_packet is not None:
            # The trail length approximates the hop count of the first
            # copy only for small hops; the source's own transmission is
            # the 1-hop case, which is the one that matters.
            if ctx.first_packet.sender == ctx.first_packet.source:
                if self.sure_hops >= 1:
                    return True
        return ctx.rng.random() < self.p
