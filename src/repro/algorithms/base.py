"""Protocol interface: how broadcast algorithms plug into the engine.

Every algorithm — the generic framework and each special case — is a
:class:`BroadcastProtocol`.  The engine drives the protocol through three
hooks:

* :meth:`BroadcastProtocol.prepare` — once per deployment, for proactive
  state (static forward sets, MPR sets);
* :meth:`BroadcastProtocol.should_forward` — the forward/non-forward
  decision at the protocol's timing point, given a :class:`NodeContext`
  capturing everything the node may legitimately know;
* :meth:`BroadcastProtocol.designate` — the designated-forward-neighbor
  selection executed when the node forwards.

Class attributes declare the protocol's position along the paper's four
axes: ``timing`` (Section 4.1), ``strict_designation`` (selection, 4.2),
``hops`` (space, 4.3), and the priority scheme is supplied by the
simulation environment (4.4).
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, FrozenSet, Optional, Set, Tuple

from ..core.views import View
from ..graph.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import SimulationEnvironment
    from ..sim.packet import Packet

__all__ = ["Timing", "NodeContext", "BroadcastProtocol"]


class Timing(enum.Enum):
    """When the forward/non-forward status is computed (Section 4.1)."""

    #: Proactively, from the static view, before any broadcast.
    STATIC = "static"
    #: Right at the first receipt of the broadcast packet.
    FIRST_RECEIPT = "fr"
    #: After a uniformly random backoff following the first receipt.
    FIRST_RECEIPT_BACKOFF = "frb"
    #: After a backoff proportional to the inverse of the node degree.
    FIRST_RECEIPT_BACKOFF_DEGREE = "frbd"


@dataclass
class NodeContext:
    """Everything node ``node`` may use when deciding its status.

    The context exposes only legitimately local knowledge: the k-hop view
    graph, snooped/piggybacked broadcast state, and the packets the node
    received.  Algorithms must not reach into the environment's full graph.

    ``known_visited``, ``known_designated`` and ``designators`` are the
    engine's live per-node sets, not copies: a hook reads them during
    its call and neither mutates them nor keeps them (or the context)
    afterwards, since later receipts keep growing them.
    """

    node: int
    is_source: bool
    time: float
    env: "SimulationEnvironment"
    hops: Optional[int]
    known_visited: AbstractSet[int]
    known_designated: AbstractSet[int]
    designators: AbstractSet[int]
    first_packet: Optional["Packet"]
    rng: random.Random

    @property
    def first_sender(self) -> Optional[int]:
        """The sender of the first received copy (``None`` at the source)."""
        return self.first_packet.sender if self.first_packet else None

    @property
    def view_graph(self) -> Topology:
        """The node's k-hop view graph ``G_k(node)`` (cached per deployment)."""
        return self.env.view_graph(self.node, self.hops)

    def neighbors(self) -> FrozenSet[int]:
        """``N(node)`` — 1-hop information, always available."""
        return self.view_graph.neighbors(self.node)

    def two_hop_neighbors(self) -> Set[int]:
        """``N2(node)`` as known from the view graph (needs ``hops >= 2``)."""
        return self.view_graph.k_hop_neighbors(self.node, 2)

    def neighbor_neighbors(self, neighbor: int) -> FrozenSet[int]:
        """``N(neighbor)`` as visible in the view graph."""
        return self.view_graph.neighbors(neighbor)

    def view(self) -> View:
        """The node's current local view: k-hop topology + broadcast state."""
        return self.env.make_view(
            self.view_graph, self.known_visited, self.known_designated
        )

    def priority(self, node: int) -> Tuple[float, ...]:
        """Priority of ``node`` under the current (dynamic) local view."""
        return self.view().priority(node)


class BroadcastProtocol(ABC):
    """Base class for every broadcast algorithm.

    Subclasses set the axis attributes and implement
    :meth:`should_forward`; neighbor-designating protocols also implement
    :meth:`designate` and usually set ``strict_designation``.
    """

    #: Registry/display name.
    name: str = "abstract"
    #: Decision timing (Section 4.1).
    timing: Timing = Timing.FIRST_RECEIPT
    #: Hops of neighborhood information; ``None`` means the global view.
    hops: Optional[int] = 2
    #: How many recently-visited entries the packet carries (Section 5).
    piggyback_h: int = 1
    #: Whether packets carry the sender's 2-hop set (TDP only).
    piggyback_two_hop: bool = False
    #: Whether a designated node must forward even if self-pruning would
    #: allow otherwise (the strict neighbor-designating rule).
    strict_designation: bool = False
    #: The relaxed rule of Section 4.2: a designated node may stay silent
    #: *if it meets the coverage condition at its raised (S = 1.5)
    #: priority*.  The engine re-invokes ``should_forward`` whenever a
    #: designation reaches a node that already decided non-forward —
    #: without this re-evaluation the relaxed rule is unsound: the node's
    #: earlier decision used its old (S = 1) threshold while other nodes
    #: now rely on it at 1.5, which can close a cyclic dependency and
    #: break coverage.
    relaxed_designation: bool = False
    #: Backoff window for the FRB/FRBD timings; sized to dominate the MAC
    #: delay so that same-wave forwarders can be overheard during backoff.
    backoff_window: float = 10.0

    def prepare(self, env: "SimulationEnvironment") -> None:
        """Per-deployment proactive computation (default: none)."""

    @abstractmethod
    def should_forward(self, ctx: NodeContext) -> bool:
        """The node's own forward/non-forward decision.

        Called at the protocol's timing point.  The engine independently
        forces forwarding for the source and — under strict designation —
        for designated nodes, so implementations answer only for the
        self-pruning component.
        """

    def designate(self, ctx: NodeContext) -> FrozenSet[int]:
        """Designated forward neighbors announced when forwarding."""
        return frozenset()

    def decision_delay(self, ctx: NodeContext, rng: random.Random) -> float:
        """Backoff between first receipt and the status decision.

        Called only for the backoff timings (FRB, FRBD): the engine
        schedules ``STATIC`` and ``FIRST_RECEIPT`` decisions at delay 0
        itself, without building a context or calling this hook.
        """
        if self.timing is Timing.FIRST_RECEIPT_BACKOFF:
            return rng.uniform(0.0, self.backoff_window)
        degree = max(1, len(ctx.neighbors()))
        return self.backoff_window / degree

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
