"""The deployment and the one-broadcast entry point.

One :class:`SimulationEnvironment` wraps a deployment (graph + priority
scheme) and caches what real nodes would have collected proactively — the
k-hop view graphs from the hello protocol and the advertised priority
metrics.  :func:`run_broadcast` runs one broadcast of one protocol from
one source over it, as a one-message stream through the event engine
(:class:`~repro.sim.service.ServiceEngine`):

* the source always forwards;
* every transmission is delivered to MAC-selected neighbors, who *snoop*
  the sender as visited and absorb the piggybacked trail (recently visited
  nodes and their designated sets);
* at the protocol's timing point (immediately or after a backoff) each
  receiving node decides its status via the protocol's hooks;
* under strict neighbor-designation, a designation forces forwarding even
  after a non-forward self-decision.

The engine is deliberately protocol-agnostic: all algorithm behaviour
lives behind :class:`~repro.algorithms.base.BroadcastProtocol`.

Observability: every step is published as a typed
:class:`~repro.sim.events.SimEvent` on the run's
:class:`~repro.sim.events.EventBus` (``collect_trace=True`` records them
into ``BroadcastOutcome.events``), and work counters flow into the active
:func:`repro.instrument.collecting` scope — ``collect_counters=True``
attaches a per-run :class:`~repro.instrument.InstrumentationCounters` to
the outcome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..algorithms.base import BroadcastProtocol
from ..core import status as st
from ..core.priority import PriorityScheme, IdPriority
from ..core.views import EpochCache, View, share_epoch_cache
from ..graph.topology import Topology
from ..instrument import InstrumentationCounters
from .events import EventBus, SimEvent
from .mac import MacModel

__all__ = [
    "SimulationEnvironment",
    "BroadcastOutcome",
    "run_broadcast",
]


class SimulationEnvironment:
    """A deployment: topology, priority scheme, and proactive caches.

    Create one per sampled network and reuse it across sources and
    protocols — the k-hop view graphs and metric table are topology-only
    and therefore shared.
    """

    def __init__(self, graph: Topology, scheme: Optional[PriorityScheme] = None) -> None:
        if graph.node_count() == 0:
            raise ValueError("cannot simulate on an empty graph")
        self.graph = graph
        self.scheme = scheme or IdPriority()
        self.metrics = self.scheme.metrics(graph)
        self._view_cache: Dict[Tuple[int, Optional[int]], Topology] = {}
        self._two_hop_cache: Dict[int, FrozenSet[int]] = {}
        #: Per-view-graph metric restriction and epoch cache (see
        #: :func:`repro.core.views.epoch_cache`), keyed by graph identity
        #: (a strong reference to the graph is kept alongside, so an id
        #: can never be recycled under the cache).  Scheme-specific —
        #: reset by :meth:`with_scheme`, unlike the topology-only view
        #: caches.
        self._view_metrics: Dict[
            int, Tuple[Topology, Dict[int, Tuple[float, ...]], EpochCache]
        ] = {}
        #: The graph's version stamp the caches above were built against;
        #: :meth:`sync_topology` catches up when it moves.
        self._graph_version = graph.version_stamp()

    def with_scheme(self, scheme: PriorityScheme) -> "SimulationEnvironment":
        """A sibling environment with a different priority scheme.

        Shares the (topology-only) view caches, so rotating priorities
        per broadcast — e.g. ``RandomEpochPriority`` for fairness — costs
        only one metrics pass.
        """
        sibling = SimulationEnvironment.__new__(SimulationEnvironment)
        sibling.graph = self.graph
        sibling.scheme = scheme
        sibling.metrics = scheme.metrics(self.graph)
        sibling._view_cache = self._view_cache
        sibling._two_hop_cache = self._two_hop_cache
        sibling._view_metrics = {}
        sibling._graph_version = self.graph.version_stamp()
        return sibling

    def sync_topology(self) -> None:
        """Catch up with structural changes to the deployment graph.

        Mobility sweeps mutate the shared graph in place (through
        :meth:`~repro.graph.topology.Topology.apply_delta` or the plain
        mutators); this environment notices through the graph's
        :meth:`~repro.graph.topology.Topology.version_stamp` and drops
        its derived caches.  The drop is wholesale but cheap: these are
        latency caches over the topology's own dirty-retained query
        cache, so re-fetching an entry for a node outside the dirty set
        is an O(1) dictionary hit there — only genuinely dirty entries
        get recomputed.  Clearing happens in place because
        :meth:`with_scheme` siblings share the cache dicts by reference.
        Called automatically by the accessors; callers that read
        :attr:`metrics` directly after mutating the graph should call
        this first.
        """
        stamp = self.graph.version_stamp()
        if stamp == self._graph_version:
            return
        self._graph_version = stamp
        self._view_cache.clear()
        self._two_hop_cache.clear()
        self._view_metrics.clear()
        self.metrics = self.scheme.metrics(self.graph)

    def view_graph(self, node: int, hops: Optional[int]) -> Topology:
        """``G_k(node)``, or the full graph when ``hops`` is ``None``."""
        self.sync_topology()
        key = (node, hops)
        cached = self._view_cache.get(key)
        if cached is None:
            if hops is None:
                cached = self.graph
            else:
                cached = self.graph.k_hop_view_graph(node, hops)
            self._view_cache[key] = cached
        return cached

    def two_hop_set(self, node: int) -> FrozenSet[int]:
        """``N2(node)`` on the deployment graph (for TDP piggybacking)."""
        self.sync_topology()
        cached = self._two_hop_cache.get(node)
        if cached is None:
            cached = frozenset(self.graph.k_hop_neighbors(node, 2))
            self._two_hop_cache[node] = cached
        return cached

    def make_view(
        self,
        view_graph: Topology,
        visited: FrozenSet[int],
        designated: FrozenSet[int],
    ) -> View:
        """Assemble a :class:`View` over ``view_graph`` with known state.

        The metric restriction to the visible nodes is topology-dependent
        only, so it is computed once per view graph and shared by every
        per-decision view the engine builds over it (views never mutate
        their metrics mapping).  So is the coverage kernel's status-free
        state, which every such view reaches through its shared
        :func:`~repro.core.views.epoch_cache`.
        """
        self.sync_topology()
        entry = self._view_metrics.get(id(view_graph))
        if entry is None or entry[0] is not view_graph:
            table = self.metrics
            entry = (
                view_graph,
                {node: table[node] for node in view_graph},
                EpochCache(),
            )
            self._view_metrics[id(view_graph)] = entry
        status: Dict[int, float] = {}
        for node in designated:
            if node in view_graph:
                status[node] = st.DESIGNATED
        for node in visited:
            if node in view_graph:
                status[node] = st.VISITED
        view = View(
            graph=view_graph,
            status=status,
            metrics=entry[1],
            metric_padding=self.scheme.padding(),
        )
        return share_epoch_cache(view, entry[2])


@dataclass
class BroadcastOutcome:
    """Result of one broadcast run."""

    source: int
    #: Nodes that transmitted the packet (the forward node set + source).
    forward_nodes: Set[int]
    #: Nodes that received at least one copy (the source counts).
    delivered: Set[int]
    #: Total transmissions (equals ``len(forward_nodes)``: one each).
    transmissions: int
    #: Simulation time of the last event.
    completion_time: float
    #: Per-node designation announcements, for analysis.
    designations: Dict[int, FrozenSet[int]]
    #: How many copies each node received (redundancy analysis).
    receipt_counts: Dict[int, int] = field(default_factory=dict)
    #: Total abstract packet size transmitted (see ``Packet.size_units``).
    bytes_transmitted: int = 0
    #: Typed event trace (``collect_trace=True``), in emission order.
    events: Optional[List[SimEvent]] = None
    #: Per-run work counters (``collect_counters=True``).
    counters: Optional[InstrumentationCounters] = None

    @property
    def forward_count(self) -> int:
        """Size of the forward node set (the paper's headline metric)."""
        return len(self.forward_nodes)

    def delivery_ratio(self, graph: Topology) -> float:
        """Delivered fraction of all nodes."""
        return len(self.delivered) / graph.node_count()

    def mean_redundancy(self) -> float:
        """Average copies received per delivered node (1.0 is optimal).

        The broadcast-storm problem is exactly this number exploding:
        under flooding every node hears one copy per neighbor.
        """
        delivered = [
            count for node, count in self.receipt_counts.items() if count
        ]
        if not delivered:
            return 0.0
        return sum(delivered) / len(delivered)


def run_broadcast(
    graph: Topology,
    protocol: BroadcastProtocol,
    source: int,
    scheme: Optional[PriorityScheme] = None,
    rng: Optional[random.Random] = None,
    mac: Optional[MacModel] = None,
    collect_trace: bool = False,
    bus: Optional[EventBus] = None,
    collect_counters: bool = False,
    env: Optional[SimulationEnvironment] = None,
) -> BroadcastOutcome:
    """One broadcast from ``source``, run to quiescence.

    Runs a :class:`~repro.sim.service.ServiceEngine` under a one-message
    :class:`~repro.sim.traffic.SingleShot` traffic model and collapses
    the result into a :class:`BroadcastOutcome`.  The event and RNG
    order are pinned by the golden traces in ``tests/sim/test_events.py``
    and ``tests/sim/golden_single_message.json``.

    ``env`` reuses a prepared :class:`SimulationEnvironment` (its graph
    must be ``graph``); without it a fresh environment is built and the
    protocol prepared.
    """
    from .service import ServiceEngine
    from .traffic import SingleShot

    if env is None:
        env = SimulationEnvironment(graph, scheme)
        protocol.prepare(env)
    elif env.graph is not graph:
        raise ValueError("env was built over a different graph")
    engine = ServiceEngine(
        env,
        protocol,
        SingleShot(source),
        rng=rng,
        mac=mac,
        collect_trace=collect_trace,
        bus=bus,
        collect_counters=collect_counters,
    )
    return engine.run().single_outcome()
