"""The broadcast engine: Algorithm 1 run over a discrete-event simulation.

One :class:`SimulationEnvironment` wraps a deployment (graph + priority
scheme) and caches what real nodes would have collected proactively — the
k-hop view graphs from the hello protocol and the advertised priority
metrics.  A :class:`BroadcastSession` then executes one broadcast of one
protocol from one source:

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
:class:`~repro.sim.events.SimEvent` on the session's
:class:`~repro.sim.events.EventBus` (``collect_trace=True`` records them
into ``BroadcastOutcome.events``), and work counters flow into the active
:func:`repro.instrument.collecting` scope — ``collect_counters=True``
attaches a per-run :class:`~repro.instrument.InstrumentationCounters` to
the outcome.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..algorithms.base import BroadcastProtocol, NodeContext, Timing
from ..core import status as st
from ..core.priority import PriorityScheme, IdPriority
from ..core.views import EpochCache, View, share_epoch_cache
from ..graph.topology import Topology
from ..instrument import InstrumentationCounters, collecting
from ..instrument import _STACK as _COUNTER_STACK
from .events import (
    NULL_BUS,
    BackoffScheduled,
    Decide,
    Deliver,
    Designate,
    Drop,
    EventBus,
    RecordingBus,
    SimEvent,
    Transmit,
)
from .mac import IdealMac, MacModel
from .packet import Packet
from .scheduler import EventScheduler
from .trace import TraceRecorder

__all__ = [
    "SimulationEnvironment",
    "BroadcastSession",
    "BroadcastOutcome",
    "MessageState",
    "MessageTable",
    "run_broadcast",
    "session_seed",
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
    #: Deprecated text-trace shim rendered from :attr:`events`.
    trace: Optional[TraceRecorder] = None
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


class MessageState:
    """Per-``(node, message)`` runtime state.

    Historically the engine kept one ``_NodeState`` per node because it
    only ever ran one message; the broadcast service runs many
    concurrently, so everything message-scoped — dedup flags, snooped
    visited/designated knowledge, designators, first/last packets — now
    lives in this per-message record.  One node holds one
    :class:`MessageState` per in-flight message, collected in its
    :class:`MessageTable`; the legacy :class:`BroadcastSession` simply
    keeps a single state (message 0) per node.
    """

    __slots__ = (
        "received",
        "decided",
        "forwarded",
        "queued",
        "dropped",
        "decision_pending",
        "known_visited",
        "known_designated",
        "designators",
        "first_packet",
        "first_time",
        "last_packet",
    )

    def __init__(self) -> None:
        self.received = False
        self.decided = False
        self.forwarded = False
        #: A forward intent is waiting in the node's egress queue —
        #: service-path only; guards against double-queuing a message
        #: when a designation arrives while the intent is queued.
        self.queued = False
        #: The node decided to forward but its egress queue rejected the
        #: transmission (backpressure) or the message expired while
        #: queued — service-path only; the legacy engine never sets it.
        self.dropped = False
        self.decision_pending = False
        self.known_visited: Set[int] = set()
        self.known_designated: Set[int] = set()
        self.designators: Set[int] = set()
        self.first_packet: Optional[Packet] = None
        self.first_time: Optional[float] = None
        self.last_packet: Optional[Packet] = None


class MessageTable:
    """One node's per-message state plus its bounded egress FIFO queue.

    The service engine's unit of node-local bookkeeping: a mapping
    ``message_id -> MessageState`` for every message the node has seen,
    and the FIFO of forward intents waiting for the node's transmitter.
    ``capacity`` bounds the egress queue — when a forward intent arrives
    while the queue is full, the service abandons it with an explicit
    ``Drop(reason="queue_full")`` (backpressure, not silent loss).
    ``capacity=None`` leaves the queue unbounded.
    """

    __slots__ = (
        "node",
        "capacity",
        "busy_until",
        "drain_scheduled",
        "queue_depth_max",
        "_states",
        "_egress",
    )

    def __init__(self, node: int, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self.node = node
        self.capacity = capacity
        #: Simulation time until which the node's transmitter is busy.
        self.busy_until = 0.0
        #: Whether a drain callback for this node's queue is already
        #: scheduled (at most one in flight keeps the event stream lean).
        self.drain_scheduled = False
        #: High-water mark of the egress queue over the table's life.
        self.queue_depth_max = 0
        self._states: Dict[int, MessageState] = {}
        self._egress: Deque[Tuple[int, FrozenSet[int]]] = deque()

    def state(self, message_id: int) -> MessageState:
        """The node's state for ``message_id``, created on first touch."""
        state = self._states.get(message_id)
        if state is None:
            state = MessageState()
            self._states[message_id] = state
        return state

    def get(self, message_id: int) -> Optional[MessageState]:
        """The node's state for ``message_id``, or ``None`` if untouched."""
        return self._states.get(message_id)

    def items(self) -> Iterator[Tuple[int, MessageState]]:
        """``(message_id, state)`` pairs in first-touch order."""
        return iter(self._states.items())

    def discard(self, message_id: int) -> None:
        """Forget a message's state (post-expiry pruning)."""
        self._states.pop(message_id, None)

    # -- egress queue --------------------------------------------------

    def queue_depth(self) -> int:
        """Forward intents currently waiting for the transmitter."""
        return len(self._egress)

    def enqueue(self, message_id: int, designated: FrozenSet[int]) -> bool:
        """Queue a forward intent; ``False`` means the queue is full.

        ``designated`` is the forward-neighbor set fixed at decision
        time; the packet itself is built when the transmitter frees up,
        from the node's then-current snooped state.
        """
        if self.capacity is not None and len(self._egress) >= self.capacity:
            return False
        self._egress.append((message_id, designated))
        if len(self._egress) > self.queue_depth_max:
            self.queue_depth_max = len(self._egress)
        return True

    def dequeue(self) -> Optional[Tuple[int, FrozenSet[int]]]:
        """Pop the oldest queued forward intent (``None`` when idle)."""
        if not self._egress:
            return None
        return self._egress.popleft()


#: Monotone sequence distinguishing same-process default-seeded sessions.
_SESSION_SEQUENCE = itertools.count()


def session_seed(source: int, sequence: int) -> int:
    """The documented default-RNG seed of one :class:`BroadcastSession`.

    ``sha256("BroadcastSession|{sequence}|{source}")``, truncated to 64
    bits.  ``sequence`` is a per-process monotone counter, so repeated
    sessions constructed without an explicit RNG draw *different* backoff
    streams (a fixed ``Random(0)`` default used to replay the identical
    stream, skewing FRB/FRBD redundancy and completion-time statistics),
    while any single session remains reproducible from its ``(source,
    sequence)`` pair.
    """
    digest = hashlib.sha256(
        f"BroadcastSession|{sequence}|{source}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


class BroadcastSession:
    """One broadcast of one protocol from one source over one deployment.

    .. deprecated::
        Direct construction is deprecated: the engine's supported entry
        points are :func:`run_broadcast` (which now routes through the
        multi-message broadcast service with a one-message traffic
        model) and :class:`repro.sim.service.ServiceEngine` for real
        traffic.  This class remains as the single-message *reference
        executor* the service's byte-identity gates compare against;
        constructing it emits a :class:`DeprecationWarning`.

    Parameters
    ----------
    rng:
        Source of randomness for backoff delays and lossy MACs.  When
        omitted, the session seeds its own generator from
        :func:`session_seed` — a per-session derivation, so repeated
        default-constructed sessions do **not** replay the same stream.
        Pass an explicit ``random.Random`` for cross-run reproducibility.
    bus:
        Event bus receiving the typed :mod:`~repro.sim.events` stream;
        defaults to the zero-cost :data:`~repro.sim.events.NULL_BUS`.
        Subscribe *before* calling :meth:`run` — the engine samples
        ``bus.active`` once at the start of the run (a plain-attribute
        hot-path check instead of a property call per event site), so
        subscriptions made mid-run are not picked up.
    collect_trace:
        Record the event stream into ``outcome.events`` (and the
        deprecated ``outcome.trace`` text shim).  Implied recording bus
        when no explicit ``bus`` is given.
    collect_counters:
        Attach per-run :class:`~repro.instrument.InstrumentationCounters`
        to ``outcome.counters``.
    """

    def __init__(
        self,
        env: SimulationEnvironment,
        protocol: BroadcastProtocol,
        source: int,
        rng: Optional[random.Random] = None,
        mac: Optional[MacModel] = None,
        collect_trace: bool = False,
        bus: Optional[EventBus] = None,
        collect_counters: bool = False,
        _deprecation_warning: bool = True,
    ) -> None:
        if _deprecation_warning:
            warnings.warn(
                "constructing BroadcastSession directly is deprecated; "
                "use run_broadcast() (the service-backed single-message "
                "path) or repro.sim.service.ServiceEngine for "
                "multi-message traffic",
                DeprecationWarning,
                stacklevel=2,
            )
        if source not in env.graph:
            raise KeyError(f"source {source} not in the deployment graph")
        self.env = env
        self.protocol = protocol
        self.source = source
        if rng is None:
            rng = random.Random(
                session_seed(source, next(_SESSION_SEQUENCE))
            )
        self.rng = rng
        self.mac = mac or IdealMac()
        self.scheduler = EventScheduler()
        if bus is None:
            bus = RecordingBus() if collect_trace else NULL_BUS
        elif collect_trace and bus.recorded() is None:
            raise ValueError(
                "collect_trace=True needs a recording bus; pass a "
                "RecordingBus or drop the explicit bus argument"
            )
        self.bus = bus
        #: ``bus.active`` snapshot; refreshed at the top of :meth:`run`.
        self._bus_on = bus.active
        self._collect_trace = collect_trace
        self._collect_counters = collect_counters
        self._states: Dict[int, MessageState] = {
            node: MessageState() for node in env.graph.nodes()
        }
        self._designations: Dict[int, FrozenSet[int]] = {}
        self._receipt_counts: Dict[int, int] = {
            node: 0 for node in env.graph.nodes()
        }
        self._bytes_transmitted = 0

    # ------------------------------------------------------------------

    def run(self) -> BroadcastOutcome:
        """Execute the broadcast to quiescence and report the outcome."""
        self._bus_on = self.bus.active
        counters: Optional[InstrumentationCounters] = None
        if self._collect_counters:
            with collecting() as counters:
                self._execute()
        else:
            self._execute()
        forward_nodes = {
            node for node, state in self._states.items() if state.forwarded
        }
        delivered = {
            node for node, state in self._states.items() if state.received
        }
        delivered.add(self.source)
        events = self.bus.recorded()
        return BroadcastOutcome(
            source=self.source,
            forward_nodes=forward_nodes,
            delivered=delivered,
            transmissions=len(forward_nodes),
            completion_time=self.scheduler.now,
            designations=dict(self._designations),
            receipt_counts=dict(self._receipt_counts),
            bytes_transmitted=self._bytes_transmitted,
            events=events,
            trace=(
                TraceRecorder.from_events(events)
                if self._collect_trace and events is not None
                else None
            ),
            counters=counters,
        )

    def _execute(self) -> None:
        self.mac.reset()
        self.scheduler.schedule_at(0.0, self._start)
        self.scheduler.run()

    # ------------------------------------------------------------------

    def _context(self, node: int) -> NodeContext:
        state = self._states[node]
        return NodeContext(
            node=node,
            is_source=(node == self.source),
            time=self.scheduler.now,
            env=self.env,
            hops=self.protocol.hops,
            known_visited=frozenset(state.known_visited),
            known_designated=frozenset(state.known_designated),
            designators=frozenset(state.designators),
            first_packet=state.first_packet,
            rng=self.rng,
        )

    def _start(self) -> None:
        state = self._states[self.source]
        state.known_visited.add(self.source)
        ctx = self._context(self.source)
        designated = self.protocol.designate(ctx)
        state.decided = True
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].decisions += 1
        if self._bus_on:
            self.bus.emit(
                Decide(
                    time=self.scheduler.now,
                    node=self.source,
                    forward=True,
                    reason="source",
                )
            )
        self._transmit(self.source, designated, incoming=None)

    def _transmit(
        self,
        node: int,
        designated: FrozenSet[int],
        incoming: Optional[Packet],
    ) -> None:
        state = self._states[node]
        state.forwarded = True
        state.known_visited.add(node)
        state.known_designated |= designated
        self._designations[node] = designated
        two_hop = (
            self.env.two_hop_set(node)
            if self.protocol.piggyback_two_hop
            else None
        )
        if incoming is None:
            packet = Packet.original(
                node, designated, self.protocol.piggyback_h, two_hop
            )
        else:
            packet = incoming.forwarded(
                node, designated, self.protocol.piggyback_h, two_hop
            )
        size = packet.size_units()
        self._bytes_transmitted += size
        if _COUNTER_STACK:
            counters = _COUNTER_STACK[-1]
            counters.transmissions += 1
            counters.bytes_transmitted += size
        bus_on = self._bus_on
        bus = self.bus
        if bus_on:
            now = self.scheduler.now
            chosen = tuple(sorted(designated))
            if chosen:
                bus.emit(Designate(time=now, node=node, designated=chosen))
            bus.emit(
                Transmit(
                    time=now, node=node, designated=chosen, size_units=size
                )
            )
        # Sorted delivery order keeps same-time tie-breaks well-defined
        # (and identical to the round-synchronous executor).
        neighbors = sorted(self.env.graph.neighbors(node))
        for receiver, arrival in self.mac.deliveries(
            node, self.scheduler.now, neighbors, self.rng
        ):
            if arrival is None:
                if bus_on:
                    bus.emit(
                        Drop(
                            time=self.scheduler.now,
                            node=receiver,
                            sender=node,
                            reason="loss",
                        )
                    )
                continue
            self.scheduler.schedule_at(
                arrival,
                lambda r=receiver, p=packet, a=arrival: self._deliver(r, p, a),
            )

    def _deliver(self, receiver: int, packet: Packet, arrival: float) -> None:
        bus = self.bus
        bus_on = self._bus_on
        if self.mac.corrupted(receiver, arrival):
            # A later transmission collided with this copy in flight.
            if bus_on:
                bus.emit(
                    Drop(
                        time=self.scheduler.now,
                        node=receiver,
                        sender=packet.sender,
                        reason="collision",
                    )
                )
            return
        state = self._states[receiver]
        if bus_on:
            bus.emit(
                Deliver(
                    time=self.scheduler.now,
                    node=receiver,
                    sender=packet.sender,
                )
            )
        self._receipt_counts[receiver] += 1
        # Snooping: hearing the transmission marks the sender visited.
        state.known_visited.add(packet.sender)
        state.last_packet = packet
        for entry in packet.trail:
            state.known_visited.add(entry.node)
            state.known_designated |= entry.designated
            if receiver in entry.designated:
                state.designators.add(entry.node)

        newly_received = not state.received
        if newly_received:
            state.received = True
            state.first_packet = packet
            state.first_time = self.scheduler.now

        if state.forwarded:
            return
        if state.decided:
            if state.designators:
                # Late designation after a non-forward decision: the
                # strict rule forces forwarding; the relaxed rule
                # re-evaluates at the node's raised (designated, S = 1.5)
                # priority — its own earlier decision used the lower
                # threshold and is no longer authoritative.
                if self.protocol.strict_designation:
                    ctx = self._context(receiver)
                    if _COUNTER_STACK:
                        _COUNTER_STACK[-1].decisions += 1
                    if bus_on:
                        bus.emit(
                            Decide(
                                time=self.scheduler.now,
                                node=receiver,
                                forward=True,
                                reason="forced-designation",
                            )
                        )
                    self._transmit(
                        receiver, self.protocol.designate(ctx), incoming=packet
                    )
                elif self.protocol.relaxed_designation:
                    ctx = self._context(receiver)
                    if self.protocol.should_forward(ctx):
                        if _COUNTER_STACK:
                            _COUNTER_STACK[-1].decisions += 1
                        if bus_on:
                            bus.emit(
                                Decide(
                                    time=self.scheduler.now,
                                    node=receiver,
                                    forward=True,
                                    reason="relaxed-designation",
                                )
                            )
                        self._transmit(
                            receiver,
                            self.protocol.designate(ctx),
                            incoming=packet,
                        )
            return
        if not state.decision_pending:
            state.decision_pending = True
            ctx = self._context(receiver)
            delay = self.protocol.decision_delay(ctx, self.rng)
            if bus_on:
                bus.emit(
                    BackoffScheduled(
                        time=self.scheduler.now, node=receiver, delay=delay
                    )
                )
            self.scheduler.schedule_in(
                delay, lambda r=receiver: self._decide(r)
            )

    def _decide(self, node: int) -> None:
        state = self._states[node]
        if state.forwarded or state.decided:
            return
        state.decided = True
        state.decision_pending = False
        ctx = self._context(node)
        forced = self.protocol.strict_designation and bool(state.designators)
        forward = forced or self.protocol.should_forward(ctx)
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].decisions += 1
        if self._bus_on:
            self.bus.emit(
                Decide(
                    time=self.scheduler.now,
                    node=node,
                    forward=forward,
                    reason="timer",
                    designated=forced,
                )
            )
        if forward:
            designated = self.protocol.designate(ctx)
            self._transmit(node, designated, incoming=state.last_packet)


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
    """Convenience one-shot: one broadcast through the service path.

    Since the broadcast-service refactor this is a thin compatibility
    wrapper: it runs a :class:`~repro.sim.service.ServiceEngine` under a
    one-message :class:`~repro.sim.traffic.SingleShot` traffic model,
    which is byte-identical to the deprecated direct
    :class:`BroadcastSession` path (forward sets, event stream, byte
    counts — gated in ``benchmarks/bench_traffic.py``).

    ``env`` reuses a prepared :class:`SimulationEnvironment` (its graph
    must be ``graph``); without it a fresh environment is built and the
    protocol prepared, exactly like the historical behaviour.
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
