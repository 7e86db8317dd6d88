"""OLSR-style link-state routing on top of MPR flooding.

Multipoint relays were invented to flood *link-state messages* in the
Optimized Link State Routing protocol — the application the paper cites
when classifying MPR.  This module closes that loop:

1. every node periodically originates a topology-control (TC) message
   advertising its links, which is flooded through the broadcast engine
   using the MPR protocol (so only relays re-transmit);
2. each node assembles the received advertisements into a link-state
   database;
3. routes are computed on the database with BFS.

The broadcast layer is the *actual* engine of this library — the TC
flood is one :func:`~repro.sim.engine.run_broadcast` per originator —
so the dissemination cost directly reflects the MPR forward sets.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..algorithms.mpr import MultipointRelay
from ..graph.topology import Topology
from ..sim.engine import SimulationEnvironment, run_broadcast

__all__ = ["LinkStateNode", "LinkStateRouting", "linkstate_seed"]

#: Monotone sequence distinguishing same-process default-seeded routers.
_ROUTER_SEQUENCE = itertools.count()


def linkstate_seed(sequence: int) -> int:
    """The documented default-RNG seed of one :class:`LinkStateRouting`.

    ``sha256("LinkStateRouting|{sequence}")`` truncated to 64 bits — the
    same derivation as :func:`repro.sim.service.service_seed`, under a
    routing-specific tag so TC-flood backoff draws never correlate with
    engine or workload streams.  A shared fixed default (the old
    ``Random(0)``) made every default-constructed router in a process
    replay the identical flood schedule; pass an explicit ``rng`` for
    cross-process reproducibility.
    """
    digest = hashlib.sha256(f"LinkStateRouting|{sequence}".encode()).digest()
    return int.from_bytes(digest[:8], "big")

Edge = Tuple[int, int]


@dataclass
class LinkStateNode:
    """One node's link-state database and derived routing table."""

    node: int
    database: Set[Edge] = field(default_factory=set)

    def topology(self) -> Topology:
        """The database as a graph (includes this node)."""
        graph = Topology(nodes=[self.node])
        for u, v in self.database:
            graph.add_edge(u, v)
        return graph

    def next_hop(self, target: int) -> Optional[int]:
        """First hop of the known shortest path to ``target``."""
        graph = self.topology()
        if target not in graph:
            return None
        path = graph.shortest_path(self.node, target)
        if path is None or len(path) < 2:
            return None
        return path[1]


class LinkStateRouting:
    """Runs a full TC dissemination round and exposes the results.

    Parameters
    ----------
    graph:
        The deployment.
    rng:
        Randomness for the per-flood sessions.

    After :meth:`disseminate`, every node's database contains the links
    advertised by every originator whose flood reached it — on a
    connected graph under an ideal MAC, the full topology.
    """

    def __init__(self, graph: Topology, rng: Optional[random.Random] = None):
        self.graph = graph
        self.rng = rng or random.Random(
            linkstate_seed(next(_ROUTER_SEQUENCE))
        )
        self.env = SimulationEnvironment(graph)
        self.nodes: Dict[int, LinkStateNode] = {
            node: LinkStateNode(node) for node in graph.nodes()
        }
        #: Total transmissions spent on dissemination (cost metric).
        self.total_transmissions = 0
        #: Transmissions a blind-flooding dissemination would have spent.
        self.flooding_transmissions = 0

    def _advertisement(self, originator: int) -> Set[Edge]:
        return {
            (min(originator, nbr), max(originator, nbr))
            for nbr in self.graph.neighbors(originator)
        }

    def disseminate(self) -> None:
        """Flood one TC message from every node via MPR."""
        for originator in self.graph.nodes():
            advertisement = self._advertisement(originator)
            protocol = MultipointRelay()
            protocol.prepare(self.env)
            outcome = run_broadcast(
                self.graph, protocol, originator, rng=self.rng, env=self.env
            )
            self.total_transmissions += outcome.transmissions
            self.flooding_transmissions += self.graph.node_count()
            for receiver in outcome.delivered:
                self.nodes[receiver].database |= advertisement

    def savings(self) -> float:
        """Fraction of transmissions saved versus flooding every TC."""
        if not self.flooding_transmissions:
            return 0.0
        return 1.0 - self.total_transmissions / self.flooding_transmissions

    def route(self, source: int, target: int) -> Optional[List[int]]:
        """Hop-by-hop forwarding using each node's own table.

        Faithful to distance-vector-free link-state forwarding: every
        intermediate consults *its* database for the next hop, so an
        incomplete dissemination shows up as a routing failure here.
        """
        path = [source]
        current = source
        seen = {source}
        while current != target:
            nxt = self.nodes[current].next_hop(target)
            if nxt is None or nxt in seen:
                return None
            path.append(nxt)
            seen.add(nxt)
            current = nxt
        return path
