"""The event engine: a stream of broadcasts over one deployment.

A deployed ad hoc network carries a *stream* of broadcasts; this module
is the one execution path for it — a single broadcast
(:func:`repro.sim.engine.run_broadcast`) is a one-message stream:

* a :class:`~repro.sim.traffic.TrafficModel` produces the injection
  schedule (who broadcasts, when, payload size, TTL);
* one shared :class:`~repro.sim.scheduler.EventScheduler`, one MAC model
  and one event bus drive every in-flight message;
* per-``(node, message)`` protocol state lives in each node's
  :class:`MessageTable`, whose bounded egress FIFO adds explicit
  backpressure: a forward intent arriving while the node's transmitter
  is busy queues, and queues past ``queue_capacity`` are refused with
  ``Drop(reason="queue_full")``;
* messages carry a TTL — copies arriving (or queued transmissions coming
  up) after expiry are dropped with ``Drop(reason="ttl_expired")``.

Every decision — the source's, a timer's, a late designation's — goes
through the protocol's hooks and is announced as one ``Decide`` event.
Work shared across messages lives below the engine, in the coverage
kernel's per-epoch state (:func:`repro.core.views.epoch_cache`).

Ordering contract: an idle node transmits synchronously at its decision
instant, the egress queue and transmitter busy-window only engage when
messages actually overlap (an intent never overtakes one already
queued), and traffic models draw from their own seeded generators, never
the decision RNG.  A transmission schedules one delivery event per
distinct arrival time (one under the ideal MAC); that event hands the
copy to its receivers in sorted neighbor order, checking collision and
TTL per receiver, and whatever a receipt schedules for the same instant
runs after the whole batch.  The golden traces in
``tests/sim/test_events.py`` and ``tests/sim/golden_single_message.json``
pin the resulting event and RNG order.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from ..algorithms.base import BroadcastProtocol, NodeContext, Timing
from ..instrument import InstrumentationCounters, collecting
from ..instrument import _STACK as _COUNTER_STACK
from .engine import BroadcastOutcome, SimulationEnvironment
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
from .traffic import Message, TrafficModel

__all__ = [
    "ServiceEngine",
    "ServiceOutcome",
    "MessageOutcome",
    "MessageState",
    "MessageTable",
    "service_seed",
    "DEFAULT_QUEUE_CAPACITY",
    "DEFAULT_TX_TIME_PER_UNIT",
]

#: Default bound of each node's egress FIFO (forward intents, not bytes).
DEFAULT_QUEUE_CAPACITY = 8

#: Default transmitter occupancy per abstract size unit.  A packet of
#: ``s`` units keeps its sender busy for ``s * this`` time units; with
#: the unit-delay MAC and the default 4-unit header this makes a single
#: transmission cheap relative to the MAC delay, so light traffic rarely
#: queues while saturating traffic visibly does.
DEFAULT_TX_TIME_PER_UNIT = 0.1

#: Drop reasons the service itself causes (vs. channel loss/collision).
_SERVICE_DROPS = frozenset({"queue_full", "ttl_expired"})

#: Monotone sequence distinguishing same-process default-seeded engines.
_SERVICE_SEQUENCE = itertools.count()


def service_seed(sequence: int) -> int:
    """The documented default-RNG seed of one :class:`ServiceEngine`.

    ``sha256("ServiceEngine|{sequence}")`` truncated to 64 bits.
    ``sequence`` is a per-process monotone counter, so repeated engines
    constructed without an explicit RNG draw *different* backoff streams
    while any single run stays reproducible from its sequence number.
    The tag keeps decision streams apart from traffic-model streams.
    """
    digest = hashlib.sha256(f"ServiceEngine|{sequence}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class MessageState:
    """Per-``(node, message)`` runtime state.

    Everything message-scoped — dedup flags, snooped visited/designated
    knowledge, designators, first/last packets — lives in this record.
    One node holds one :class:`MessageState` per message it has seen,
    collected in its :class:`MessageTable`.
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
        "last_packet",
    )

    def __init__(self) -> None:
        self.received = False
        self.decided = False
        self.forwarded = False
        #: A forward intent is waiting in the node's egress queue; guards
        #: against double-queuing a message when a designation arrives
        #: while the intent is queued.
        self.queued = False
        #: The node decided to forward but its egress queue rejected the
        #: transmission (backpressure) or the message expired first.
        self.dropped = False
        self.decision_pending = False
        self.known_visited: Set[int] = set()
        self.known_designated: Set[int] = set()
        self.designators: Set[int] = set()
        self.first_packet: Optional[Packet] = None
        self.last_packet: Optional[Packet] = None


class MessageTable:
    """One node's per-message state plus its bounded egress FIFO queue.

    The engine's unit of node-local bookkeeping: a mapping
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


@dataclass
class MessageOutcome:
    """What happened to one injected message."""

    message: Message
    #: Nodes that actually transmitted this message.
    forward_nodes: Set[int]
    #: Nodes that received at least one intact copy (the source counts).
    delivered: Set[int]
    #: Copies received per node (sparse: only nodes that heard one).
    receipt_counts: Dict[int, int]
    #: Per-node designated sets announced while forwarding.
    designations: Dict[int, FrozenSet[int]]
    #: Abstract size units transmitted for this message.
    bytes_transmitted: int = 0
    #: Simulation time of the last *first* receipt (``None`` if nobody
    #: beyond the source ever heard it).
    completed_at: Optional[float] = None
    #: Whether every node of the deployment received the message.
    delivered_all: bool = False
    #: Drop events by reason (``loss``/``collision``/``queue_full``/
    #: ``ttl_expired``).
    drops: Dict[str, int] = field(default_factory=dict)

    @property
    def delivery_latency(self) -> Optional[float]:
        """Injection-to-last-first-receipt latency, if fully delivered.

        The service's SLO metric: how long until the *whole* network has
        the message.  ``None`` for partially delivered messages — they
        are failures, not latency samples.
        """
        if not self.delivered_all or self.completed_at is None:
            return None
        return self.completed_at - self.message.injected_at

    @property
    def forward_count(self) -> int:
        """Size of this message's forward node set."""
        return len(self.forward_nodes)


@dataclass
class ServiceOutcome:
    """Result of one service run: all messages plus shared bookkeeping."""

    #: Per-message outcomes, in message-id order.
    messages: List[MessageOutcome]
    #: Every node of the deployment (for ratio/expansion helpers).
    nodes: Tuple[int, ...]
    #: Simulation time of the last executed event.
    completion_time: float
    #: High-water mark over every node's egress queue.
    queue_depth_max: int = 0
    #: Backpressure + staleness drops (queue_full and ttl_expired events).
    messages_dropped: int = 0
    #: Typed event trace (``collect_trace=True``), in emission order.
    events: Optional[List[SimEvent]] = None
    #: Per-run work counters (``collect_counters=True``).
    counters: Optional[InstrumentationCounters] = None

    @property
    def delivered_count(self) -> int:
        """How many messages reached every node."""
        return sum(1 for m in self.messages if m.delivered_all)

    def latencies(self) -> List[float]:
        """Delivery latencies of fully delivered messages, in id order."""
        return [
            m.delivery_latency
            for m in self.messages
            if m.delivery_latency is not None
        ]

    def goodput(self) -> float:
        """Fully delivered messages per simulation time unit."""
        if self.completion_time <= 0:
            return 0.0
        return self.delivered_count / self.completion_time

    def offered_load(self) -> float:
        """Injected messages per simulation time unit (over the run)."""
        if self.completion_time <= 0:
            return 0.0
        return len(self.messages) / self.completion_time

    def single_outcome(self) -> BroadcastOutcome:
        """Collapse a one-message run into a :class:`BroadcastOutcome`.

        The bridge behind :func:`repro.sim.engine.run_broadcast`,
        including the all-nodes (zero-defaulted) receipt-count table.
        """
        if len(self.messages) != 1:
            raise ValueError(
                f"single_outcome() needs exactly one message, "
                f"got {len(self.messages)}"
            )
        only = self.messages[0]
        receipt_counts = {node: 0 for node in self.nodes}
        receipt_counts.update(only.receipt_counts)
        return BroadcastOutcome(
            source=only.message.source,
            forward_nodes=set(only.forward_nodes),
            delivered=set(only.delivered),
            transmissions=len(only.forward_nodes),
            completion_time=self.completion_time,
            designations=dict(only.designations),
            receipt_counts=receipt_counts,
            bytes_transmitted=only.bytes_transmitted,
            events=self.events,
            counters=self.counters,
        )


class ServiceEngine:
    """Run a traffic model's message stream over one deployment.

    Parameters
    ----------
    env, protocol:
        The deployment and the broadcast algorithm;
        ``protocol.prepare(env)`` must have been called.
    traffic:
        The :class:`~repro.sim.traffic.TrafficModel` producing the
        injection schedule.
    rng:
        Decision/backoff randomness.  When omitted, seeded from
        :func:`service_seed` (per-process monotone derivation).
    queue_capacity:
        Bound of each node's egress FIFO;
        :data:`DEFAULT_QUEUE_CAPACITY` by default, ``None`` unbounded.
    tx_time_per_unit:
        Transmitter occupancy per abstract packet size unit (see
        :data:`DEFAULT_TX_TIME_PER_UNIT`); 0 disables the busy window
        (and with it all queueing).
    bus:
        Event bus receiving the typed :mod:`~repro.sim.events` stream;
        defaults to the zero-cost :data:`~repro.sim.events.NULL_BUS`.
        Subscribe *before* calling :meth:`run` — the engine samples
        ``bus.active`` once at the start of the run, so subscriptions
        made mid-run are not picked up.
    collect_trace:
        Record the event stream into ``outcome.events``.  Implies a
        recording bus when no explicit ``bus`` is given.
    collect_counters:
        Attach per-run :class:`~repro.instrument.InstrumentationCounters`
        to ``outcome.counters``.

    An engine instance runs once: :meth:`run` drains the schedule (or
    stops at ``horizon``) and returns a :class:`ServiceOutcome`.
    """

    def __init__(
        self,
        env: SimulationEnvironment,
        protocol: BroadcastProtocol,
        traffic: TrafficModel,
        rng: Optional[random.Random] = None,
        mac: Optional[MacModel] = None,
        queue_capacity: Optional[int] = DEFAULT_QUEUE_CAPACITY,
        tx_time_per_unit: float = DEFAULT_TX_TIME_PER_UNIT,
        collect_trace: bool = False,
        bus: Optional[EventBus] = None,
        collect_counters: bool = False,
    ) -> None:
        if tx_time_per_unit < 0:
            raise ValueError(
                f"tx_time_per_unit must be non-negative, got {tx_time_per_unit}"
            )
        self.env = env
        self.protocol = protocol
        self.traffic = traffic
        if rng is None:
            rng = random.Random(service_seed(next(_SERVICE_SEQUENCE)))
        self.rng = rng
        self.mac = mac or IdealMac()
        self.queue_capacity = queue_capacity
        self.tx_time_per_unit = tx_time_per_unit
        self.scheduler = EventScheduler()
        if bus is None:
            bus = RecordingBus() if collect_trace else NULL_BUS
        elif collect_trace and bus.recorded() is None:
            raise ValueError(
                "collect_trace=True needs a recording bus; pass a "
                "RecordingBus or drop the explicit bus argument"
            )
        self.bus = bus
        self._bus_on = bus.active
        #: STATIC/FIRST_RECEIPT decide at first receipt: no backoff.
        self._immediate = protocol.timing in (
            Timing.STATIC, Timing.FIRST_RECEIPT
        )
        self._collect_trace = collect_trace
        self._collect_counters = collect_counters
        self._tables: Dict[int, MessageTable] = {
            node: MessageTable(node, queue_capacity)
            for node in env.graph.nodes()
        }
        self._messages: Dict[int, Message] = {}
        self._forward_nodes: Dict[int, Set[int]] = {}
        self._delivered: Dict[int, Set[int]] = {}
        self._receipts: Dict[int, Dict[int, int]] = {}
        self._designations: Dict[int, Dict[int, FrozenSet[int]]] = {}
        self._bytes: Dict[int, int] = {}
        self._completed_at: Dict[int, float] = {}
        self._drops: Dict[int, Dict[str, int]] = {}
        self._messages_dropped = 0
        self._ran = False

    # ------------------------------------------------------------------

    def run(self, horizon: Optional[float] = None) -> ServiceOutcome:
        """Execute the full traffic schedule and report the outcome.

        ``horizon`` cuts the run off at a fixed simulation time (events
        beyond it never fire) — the saturation valve for overload
        sweeps; ``None`` runs to quiescence.
        """
        if self._ran:
            raise RuntimeError("a ServiceEngine instance runs only once")
        self._ran = True
        self._bus_on = self.bus.active
        schedule = self.traffic.generate(self.env.graph)
        for message in schedule:
            if message.source not in self._tables:
                raise KeyError(
                    f"message {message.message_id} source {message.source} "
                    f"not in the deployment graph"
                )
            self._messages[message.message_id] = message
            self._forward_nodes[message.message_id] = set()
            self._delivered[message.message_id] = set()
            self._receipts[message.message_id] = {}
            self._designations[message.message_id] = {}
            self._bytes[message.message_id] = 0
            self._drops[message.message_id] = {}
        counters: Optional[InstrumentationCounters] = None
        if self._collect_counters:
            with collecting() as counters:
                self._execute(schedule, horizon)
        else:
            self._execute(schedule, horizon)
        return self._assemble(counters)

    def _execute(
        self, schedule: List[Message], horizon: Optional[float]
    ) -> None:
        self.mac.reset()
        for message in schedule:
            self.scheduler.schedule_at(
                message.injected_at,
                lambda m=message: self._inject(m),
            )
        if horizon is None:
            self.scheduler.run()
        else:
            self.scheduler.run_until(horizon)
        queue_depth_max = self._queue_depth_max()
        if _COUNTER_STACK:
            top = _COUNTER_STACK[-1]
            if queue_depth_max > top.queue_depth_max:
                top.queue_depth_max = queue_depth_max

    def _queue_depth_max(self) -> int:
        return max(
            (table.queue_depth_max for table in self._tables.values()),
            default=0,
        )

    def _assemble(
        self, counters: Optional[InstrumentationCounters]
    ) -> ServiceOutcome:
        nodes = tuple(self.env.graph.nodes())
        node_count = len(nodes)
        outcomes: List[MessageOutcome] = []
        for mid in sorted(self._messages):
            message = self._messages[mid]
            delivered = set(self._delivered[mid])
            delivered.add(message.source)
            outcomes.append(
                MessageOutcome(
                    message=message,
                    forward_nodes=self._forward_nodes[mid],
                    delivered=delivered,
                    receipt_counts=self._receipts[mid],
                    designations=self._designations[mid],
                    bytes_transmitted=self._bytes[mid],
                    completed_at=self._completed_at.get(mid),
                    delivered_all=(len(delivered) == node_count),
                    drops=self._drops[mid],
                )
            )
        return ServiceOutcome(
            messages=outcomes,
            nodes=nodes,
            completion_time=self.scheduler.now,
            queue_depth_max=self._queue_depth_max(),
            messages_dropped=self._messages_dropped,
            events=self.bus.recorded(),
            counters=counters,
        )

    # ------------------------------------------------------------------

    def _context(self, message: Message, node: int) -> NodeContext:
        state = self._tables[node].state(message.message_id)
        return NodeContext(
            node=node,
            is_source=(node == message.source),
            time=self.scheduler.now,
            env=self.env,
            hops=self.protocol.hops,
            known_visited=frozenset(state.known_visited),
            known_designated=frozenset(state.known_designated),
            designators=frozenset(state.designators),
            first_packet=state.first_packet,
            rng=self.rng,
        )

    def _drop(self, message_id: int, node: int, sender: int, reason: str) -> None:
        """Record a drop; backpressure and TTL expiry also count as
        service drops (``messages_dropped``), channel losses do not."""
        drops = self._drops[message_id]
        drops[reason] = drops.get(reason, 0) + 1
        if reason in _SERVICE_DROPS:
            self._messages_dropped += 1
            if _COUNTER_STACK:
                _COUNTER_STACK[-1].messages_dropped += 1
        if self._bus_on:
            self.bus.emit(
                Drop(
                    time=self.scheduler.now,
                    node=node,
                    message_id=message_id,
                    sender=sender,
                    reason=reason,
                )
            )

    def _inject(self, message: Message) -> None:
        """Start one broadcast: the source decides and (tries to) forward."""
        # Give the shared MAC a chance to age out interference state the
        # finished part of the stream can no longer influence.
        self.mac.retire(self.scheduler.now)
        state = self._tables[message.source].state(message.message_id)
        state.known_visited.add(message.source)
        state.decided = True
        self._forward(
            message,
            message.source,
            self._context(message, message.source),
            "source",
            incoming=None,
        )

    def _announce(
        self,
        message: Message,
        node: int,
        forward: bool,
        reason: str,
        forced: bool = False,
    ) -> None:
        """Count one decision and publish it as a ``Decide`` event."""
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].decisions += 1
        if self._bus_on:
            self.bus.emit(
                Decide(
                    time=self.scheduler.now,
                    node=node,
                    message_id=message.message_id,
                    forward=forward,
                    reason=reason,
                    designated=forced,
                )
            )

    def _forward(
        self,
        message: Message,
        node: int,
        ctx: NodeContext,
        reason: str,
        incoming: Optional[Packet],
        forced: bool = False,
    ) -> None:
        """Announce a forward decision, then designate and transmit."""
        self._announce(message, node, True, reason, forced)
        self._transmit(message, node, self.protocol.designate(ctx), incoming)

    # ------------------------------------------------------------------

    def _transmit(
        self,
        message: Message,
        node: int,
        designated: FrozenSet[int],
        incoming: Optional[Packet],
    ) -> None:
        """Forward intent: transmit now if idle, else queue (or drop)."""
        table = self._tables[node]
        now = self.scheduler.now
        # Queue behind a busy transmitter *or* behind earlier intents: an
        # intent arriving the instant the transmitter frees, before the
        # armed drain fires, must not jump the FIFO.
        if now < table.busy_until or table.queue_depth():
            state = table.state(message.message_id)
            if table.enqueue(message.message_id, designated):
                state.queued = True
                if not table.drain_scheduled:
                    table.drain_scheduled = True
                    self.scheduler.schedule_at(
                        table.busy_until,
                        lambda n=node: self._drain_egress(n),
                    )
            else:
                state.dropped = True
                self._drop(message.message_id, node, node, "queue_full")
            return
        self._do_transmit(message, node, designated, incoming)

    def _do_transmit(
        self,
        message: Message,
        node: int,
        designated: FrozenSet[int],
        incoming: Optional[Packet],
    ) -> None:
        mid = message.message_id
        table = self._tables[node]
        state = table.state(mid)
        state.forwarded = True
        state.known_visited.add(node)
        state.known_designated |= designated
        self._forward_nodes[mid].add(node)
        self._designations[mid][node] = designated
        two_hop = (
            self.env.two_hop_set(node)
            if self.protocol.piggyback_two_hop
            else None
        )
        if incoming is None:
            packet = Packet.original(
                node,
                designated,
                self.protocol.piggyback_h,
                two_hop,
                message_id=mid,
                payload_units=message.size_units,
                expires_at=message.expires_at,
            )
        else:
            packet = incoming.forwarded(
                node, designated, self.protocol.piggyback_h, two_hop
            )
        size = packet.size_units()
        self._bytes[mid] += size
        now = self.scheduler.now
        table.busy_until = now + size * self.tx_time_per_unit
        if _COUNTER_STACK:
            top = _COUNTER_STACK[-1]
            top.transmissions += 1
            top.bytes_transmitted += size
        if self._bus_on:
            bus = self.bus
            chosen = tuple(sorted(designated))
            if chosen:
                bus.emit(
                    Designate(
                        time=now, node=node, message_id=mid, designated=chosen
                    )
                )
            bus.emit(
                Transmit(
                    time=now,
                    node=node,
                    message_id=mid,
                    designated=chosen,
                    size_units=size,
                )
            )
        # One delivery event per distinct arrival time, its receivers in
        # sorted neighbor order: the scheduler's FIFO tie-break already
        # ran one transmission's same-time copies back to back.
        neighbors = sorted(self.env.graph.neighbors(node))
        batches: Dict[float, List[int]] = {}
        for receiver, arrival in self.mac.deliveries(
            node, now, neighbors, self.rng
        ):
            if arrival is None:
                self._drop(mid, receiver, node, "loss")
                continue
            batch = batches.get(arrival)
            if batch is None:
                batches[arrival] = [receiver]
            else:
                batch.append(receiver)
        for arrival, receivers in batches.items():
            self.scheduler.schedule_at(
                arrival,
                lambda m=message, p=packet, a=arrival, rs=receivers: (
                    self._deliver_batch(m, p, a, rs)
                ),
            )

    def _drain_egress(self, node: int) -> None:
        """The node's transmitter freed up: send the oldest queued intent."""
        table = self._tables[node]
        table.drain_scheduled = False
        now = self.scheduler.now
        if now < table.busy_until:
            # Another transmission slipped in meanwhile; re-arm.
            table.drain_scheduled = True
            self.scheduler.schedule_at(
                table.busy_until, lambda n=node: self._drain_egress(n)
            )
            return
        entry = table.dequeue()
        while entry is not None:
            mid, designated = entry
            message = self._messages[mid]
            state = table.state(mid)
            state.queued = False
            expires = message.expires_at
            if expires is not None and now > expires:
                state.dropped = True
                self._drop(mid, node, node, "ttl_expired")
                entry = table.dequeue()
                continue
            # Relay the last copy delivered: the paper leaves open which
            # same-instant copy is relayed; the golden traces pin this one.
            self._do_transmit(
                message, node, designated, incoming=state.last_packet
            )
            break
        if table.queue_depth() and not table.drain_scheduled:
            table.drain_scheduled = True
            self.scheduler.schedule_at(
                table.busy_until, lambda n=node: self._drain_egress(n)
            )

    # ------------------------------------------------------------------

    def _deliver_batch(
        self,
        message: Message,
        packet: Packet,
        arrival: float,
        receivers: List[int],
    ) -> None:
        """One transmission's copies landing at ``arrival``, in order."""
        mid = message.message_id
        now = self.scheduler.now
        sender = packet.sender
        trail = packet.trail
        expired = packet.expired(now)
        corrupted = self.mac.corrupted
        tables = self._tables
        receipts = self._receipts[mid]
        delivered = self._delivered[mid]
        bus = self.bus if self._bus_on else None
        for receiver in receivers:
            # Per receiver: a later transmission — even one a receipt
            # earlier in this batch triggered — may have poisoned it.
            if corrupted(receiver, arrival):
                self._drop(mid, receiver, sender, "collision")
                continue
            if expired:
                self._drop(mid, receiver, sender, "ttl_expired")
                continue
            state = tables[receiver].state(mid)
            if bus is not None:
                bus.emit(
                    Deliver(
                        time=now, node=receiver, message_id=mid, sender=sender
                    )
                )
            receipts[receiver] = receipts.get(receiver, 0) + 1
            # Snooping: hearing the transmission marks the sender visited.
            known_visited = state.known_visited
            known_visited.add(sender)
            state.last_packet = packet
            for entry in trail:
                known_visited.add(entry.node)
                state.known_designated |= entry.designated
                if receiver in entry.designated:
                    state.designators.add(entry.node)
            if not state.received:
                state.received = True
                state.first_packet = packet
                delivered.add(receiver)
                self._completed_at[mid] = now
            if state.forwarded or state.queued or state.dropped:
                continue
            if state.decided:
                if state.designators:
                    self._react(message, receiver, state, packet)
            elif not state.decision_pending:
                self._react(message, receiver, state, packet)

    def _react(
        self,
        message: Message,
        node: int,
        state: MessageState,
        packet: Packet,
    ) -> None:
        """A receipt arms ``node``'s decision timer or designates it late.

        Late designation after a non-forward decision: the strict rule
        forces forwarding; the relaxed rule re-evaluates at the node's
        raised (designated, S = 1.5) priority — its own earlier decision
        used the lower threshold and is no longer authoritative.
        """
        protocol = self.protocol
        if state.decided:
            if protocol.strict_designation:
                ctx = self._context(message, node)
                self._forward(message, node, ctx, "forced-designation", packet)
            elif protocol.relaxed_designation:
                ctx = self._context(message, node)
                if protocol.should_forward(ctx):
                    self._forward(
                        message, node, ctx, "relaxed-designation", packet
                    )
            return
        state.decision_pending = True
        if self._immediate:
            # STATIC/FIRST_RECEIPT decide at once: no context, no backoff.
            delay = 0.0
        else:
            delay = protocol.decision_delay(
                self._context(message, node), self.rng
            )
        if self._bus_on:
            self.bus.emit(
                BackoffScheduled(
                    time=self.scheduler.now,
                    node=node,
                    message_id=message.message_id,
                    delay=delay,
                )
            )
        self.scheduler.schedule_in(
            delay, lambda m=message, n=node: self._decide(m, n)
        )

    # ------------------------------------------------------------------

    def _decide(self, message: Message, node: int) -> None:
        """A node's backoff timer fired: take its forward/non-forward status."""
        mid = message.message_id
        state = self._tables[node].state(mid)
        if state.forwarded or state.decided:
            return
        state.decided = True
        state.decision_pending = False
        expires = message.expires_at
        if expires is not None and self.scheduler.now > expires:
            # The decision timer outlived the message: nothing to forward.
            state.dropped = True
            self._drop(mid, node, node, "ttl_expired")
            return
        ctx = self._context(message, node)
        forced = self.protocol.strict_designation and bool(state.designators)
        if forced or self.protocol.should_forward(ctx):
            # Relay the last copy delivered (see _drain_egress).
            self._forward(
                message, node, ctx, "timer", state.last_packet, forced=forced
            )
        else:
            self._announce(message, node, False, "timer")
