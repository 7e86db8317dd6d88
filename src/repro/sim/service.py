"""The event engine: a stream of broadcasts over one deployment.

A deployed ad hoc network carries a *stream* of broadcasts; this module
is the one execution path for it — a single broadcast
(:func:`repro.sim.engine.run_broadcast`) is a one-message stream:

* a :class:`~repro.sim.traffic.TrafficModel` produces the injection
  schedule (who broadcasts, when, payload size, TTL);
* one shared :class:`~repro.sim.scheduler.EventScheduler`, one MAC model
  and one event bus drive every in-flight message;
* each message has one record: a :class:`MessageState` per node that
  has seen it, and its :class:`MessageOutcome`, filled in place;
* each node has one bounded egress FIFO, which adds explicit
  backpressure: a forward intent arriving while the node's transmitter
  is busy queues, and queues past ``queue_capacity`` are refused with
  ``Drop(reason="queue_full")``;
* messages carry a TTL — copies arriving (or queued transmissions coming
  up) after expiry are dropped with ``Drop(reason="ttl_expired")``.

Every decision — the source's, a timer's, a late designation's — goes
through the protocol's hooks and is announced as one ``Decide`` event.
A receipt snoops what its packet carries (Section 5): the sender and
the trail's nodes become known visited, and the trail's designated sets
known designated.  Both are merged once per transmission, and the
hooks read the node's live sets, with no copy per decision.
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
``tests/sim/test_events.py`` and ``tests/sim/golden_*.json`` pin the
resulting event and RNG order.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque
from contextlib import nullcontext
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
    """One node's runtime state for one message.

    Dedup flags, the snooped visited/designated knowledge, the node's
    designators and the first/last copies it heard.  The three sets are
    handed to the protocol's hooks as they are (see
    :class:`~repro.algorithms.base.NodeContext`).
    """

    __slots__ = (
        "received",
        "decided",
        "committed",
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
        #: The node has acted on the message: it transmitted it, its
        #: forward intent waits in the egress queue, or the message was
        #: dropped at the node (queue full or TTL expired).  Unlike a
        #: non-forward decision, no later designation reopens it.
        self.committed = False
        self.decision_pending = False
        self.known_visited: Set[int] = set()
        self.known_designated: Set[int] = set()
        self.designators: Set[int] = set()
        self.first_packet: Optional[Packet] = None
        self.last_packet: Optional[Packet] = None


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


class _Flight:
    """One message's record: every node's state for it, and its outcome.

    The engine fills ``outcome`` in place as the message spreads; the
    source counts as delivered from the start.
    """

    __slots__ = ("states", "outcome")

    def __init__(self, message: Message) -> None:
        self.states: Dict[int, MessageState] = {}
        self.outcome = MessageOutcome(
            message=message,
            forward_nodes=set(),
            delivered={message.source},
            receipt_counts={},
            designations={},
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
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
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
        self._collect_counters = collect_counters
        #: One record per message, indexed by its (dense) id.
        self._flights: List[_Flight] = []
        #: Per node, created on first use: the egress FIFO of forward
        #: intents, the time its transmitter frees up, and whether a
        #: drain of its queue is armed (at most one in flight).
        self._egress: Dict[int, Deque[Tuple[_Flight, FrozenSet[int]]]] = {}
        self._busy_until: Dict[int, float] = {}
        self._drain_armed: Set[int] = set()
        self._queue_depth_max = 0
        self._ran = False

    # ------------------------------------------------------------------

    def run(self, horizon: Optional[float] = None) -> ServiceOutcome:
        """Execute the full traffic schedule and report the outcome.

        ``horizon`` cuts the run off at a fixed simulation time (events
        beyond it never fire) — the saturation valve for overload
        sweeps; ``None`` runs to quiescence.  The schedule must keep the
        :class:`~repro.sim.traffic.TrafficModel` contract of dense ids
        (``message_id`` equals the message's position); a repeated or
        skipped id raises ``ValueError``.
        """
        if self._ran:
            raise RuntimeError("a ServiceEngine instance runs only once")
        self._ran = True
        self._bus_on = self.bus.active
        graph = self.env.graph
        schedule = self.traffic.generate(graph)
        for position, message in enumerate(schedule):
            if message.message_id != position:
                raise ValueError(
                    f"message id {message.message_id} at schedule position "
                    f"{position}: ids must be dense 0..n-1 in schedule order"
                )
            if message.source not in graph:
                raise KeyError(
                    f"message {message.message_id} source {message.source} "
                    f"not in the deployment graph"
                )
            self._flights.append(_Flight(message))
        scope = collecting() if self._collect_counters else nullcontext()
        with scope as counters:
            self.mac.reset()
            for flight in self._flights:
                self.scheduler.schedule_at(
                    flight.outcome.message.injected_at,
                    lambda f=flight: self._inject(f),
                )
            if horizon is None:
                self.scheduler.run()
            else:
                self.scheduler.run_until(horizon)
            if _COUNTER_STACK:
                top = _COUNTER_STACK[-1]
                top.queue_depth_max = max(
                    top.queue_depth_max, self._queue_depth_max
                )
        return self._assemble(counters)

    def _assemble(
        self, counters: Optional[InstrumentationCounters]
    ) -> ServiceOutcome:
        nodes = tuple(self.env.graph.nodes())
        outcomes = [flight.outcome for flight in self._flights]
        for outcome in outcomes:
            outcome.delivered_all = len(outcome.delivered) == len(nodes)
        return ServiceOutcome(
            messages=outcomes,
            nodes=nodes,
            completion_time=self.scheduler.now,
            queue_depth_max=self._queue_depth_max,
            messages_dropped=sum(
                count
                for outcome in outcomes
                for reason, count in outcome.drops.items()
                if reason in _SERVICE_DROPS
            ),
            events=self.bus.recorded(),
            counters=counters,
        )

    # ------------------------------------------------------------------

    def _context(
        self, flight: _Flight, node: int, state: MessageState
    ) -> NodeContext:
        return NodeContext(
            node=node,
            is_source=(node == flight.outcome.message.source),
            time=self.scheduler.now,
            env=self.env,
            hops=self.protocol.hops,
            known_visited=state.known_visited,
            known_designated=state.known_designated,
            designators=state.designators,
            first_packet=state.first_packet,
            rng=self.rng,
        )

    def _drop(self, flight: _Flight, node: int, sender: int, reason: str) -> None:
        """Record a drop; backpressure and TTL expiry also count as
        service drops (``messages_dropped``), channel losses do not."""
        outcome = flight.outcome
        drops = outcome.drops
        drops[reason] = drops.get(reason, 0) + 1
        if reason in _SERVICE_DROPS and _COUNTER_STACK:
            _COUNTER_STACK[-1].messages_dropped += 1
        if self._bus_on:
            self.bus.emit(
                Drop(
                    time=self.scheduler.now,
                    node=node,
                    message_id=outcome.message.message_id,
                    sender=sender,
                    reason=reason,
                )
            )

    def _inject(self, flight: _Flight) -> None:
        """Start one broadcast: the source decides and (tries to) forward."""
        # Give the shared MAC a chance to age out interference state the
        # finished part of the stream can no longer influence.
        self.mac.retire(self.scheduler.now)
        source = flight.outcome.message.source
        state = flight.states[source] = MessageState()
        state.known_visited.add(source)
        state.decided = True
        ctx = self._context(flight, source, state)
        self._forward(flight, source, state, ctx, "source", incoming=None)

    def _announce(
        self,
        flight: _Flight,
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
                    message_id=flight.outcome.message.message_id,
                    forward=forward,
                    reason=reason,
                    designated=forced,
                )
            )

    def _forward(
        self,
        flight: _Flight,
        node: int,
        state: MessageState,
        ctx: NodeContext,
        reason: str,
        incoming: Optional[Packet],
        forced: bool = False,
    ) -> None:
        """Announce a forward decision, then designate and transmit."""
        self._announce(flight, node, True, reason, forced)
        self._transmit(
            flight, node, state, self.protocol.designate(ctx), incoming
        )

    # ------------------------------------------------------------------

    def _transmit(
        self,
        flight: _Flight,
        node: int,
        state: MessageState,
        designated: FrozenSet[int],
        incoming: Optional[Packet],
    ) -> None:
        """Forward intent: transmit now if idle, else queue (or drop)."""
        state.committed = True
        queue = self._egress.get(node)
        # Queue behind a busy transmitter *or* behind earlier intents: an
        # intent arriving the instant the transmitter frees, before the
        # armed drain fires, must not jump the FIFO.
        if self.scheduler.now < self._busy_until.get(node, 0.0) or queue:
            if queue is None:
                queue = self._egress[node] = deque()
            capacity = self.queue_capacity
            if capacity is not None and len(queue) >= capacity:
                self._drop(flight, node, node, "queue_full")
                return
            queue.append((flight, designated))
            if len(queue) > self._queue_depth_max:
                self._queue_depth_max = len(queue)
            if node not in self._drain_armed:
                self._arm_drain(node)
            return
        self._do_transmit(flight, node, state, designated, incoming)

    def _do_transmit(
        self,
        flight: _Flight,
        node: int,
        state: MessageState,
        designated: FrozenSet[int],
        incoming: Optional[Packet],
    ) -> None:
        outcome = flight.outcome
        message = outcome.message
        mid = message.message_id
        state.known_visited.add(node)
        state.known_designated |= designated
        outcome.forward_nodes.add(node)
        outcome.designations[node] = designated
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
        outcome.bytes_transmitted += size
        now = self.scheduler.now
        self._busy_until[node] = now + size * self.tx_time_per_unit
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
        # What every receipt of this copy snoops, merged once: the sender
        # and the trail's nodes as visited, the trail's designated sets.
        visited = {node}
        trail_designated: Set[int] = set()
        for entry in packet.trail:
            visited.add(entry.node)
            trail_designated |= entry.designated
        # One delivery event per distinct arrival time, its receivers in
        # sorted neighbor order: the scheduler's FIFO tie-break already
        # ran one transmission's same-time copies back to back.
        neighbors = sorted(self.env.graph.neighbors(node))
        batches: Dict[float, List[int]] = {}
        for receiver, arrival in self.mac.deliveries(
            node, now, neighbors, self.rng
        ):
            if arrival is None:
                self._drop(flight, receiver, node, "loss")
                continue
            batches.setdefault(arrival, []).append(receiver)
        for arrival, receivers in batches.items():
            self.scheduler.schedule_at(
                arrival,
                lambda a=arrival, rs=receivers: self._deliver_batch(
                    flight, packet, visited, trail_designated, a, rs
                ),
            )

    def _arm_drain(self, node: int) -> None:
        self._drain_armed.add(node)
        self.scheduler.schedule_at(
            self._busy_until[node], lambda n=node: self._drain_egress(n)
        )

    def _drain_egress(self, node: int) -> None:
        """The node's transmitter freed up: send the oldest queued intent."""
        self._drain_armed.discard(node)
        now = self.scheduler.now
        if now < self._busy_until[node]:
            # Another transmission slipped in meanwhile; re-arm.
            self._arm_drain(node)
            return
        queue = self._egress[node]
        while queue:
            flight, designated = queue.popleft()
            expires = flight.outcome.message.expires_at
            if expires is not None and now > expires:
                self._drop(flight, node, node, "ttl_expired")
                continue
            state = flight.states[node]
            # Relay the last copy delivered: the paper leaves open which
            # same-instant copy is relayed; the golden traces pin this one.
            self._do_transmit(
                flight, node, state, designated, incoming=state.last_packet
            )
            break
        if queue and node not in self._drain_armed:
            self._arm_drain(node)

    # ------------------------------------------------------------------

    def _deliver_batch(
        self,
        flight: _Flight,
        packet: Packet,
        visited: Set[int],
        trail_designated: Set[int],
        arrival: float,
        receivers: List[int],
    ) -> None:
        """One transmission's copies landing at ``arrival``, in order.

        ``visited`` and ``trail_designated`` are what the copy snoops
        (see :meth:`_do_transmit`).
        """
        outcome = flight.outcome
        mid = outcome.message.message_id
        now = self.scheduler.now
        sender = packet.sender
        expired = packet.expired(now)
        corrupted = self.mac.corrupted
        states = flight.states
        receipts = outcome.receipt_counts
        bus = self.bus if self._bus_on else None
        for receiver in receivers:
            # Per receiver: a later transmission — even one a receipt
            # earlier in this batch triggered — may have poisoned it.
            if corrupted(receiver, arrival):
                self._drop(flight, receiver, sender, "collision")
                continue
            if expired:
                self._drop(flight, receiver, sender, "ttl_expired")
                continue
            state = states.get(receiver)
            if state is None:
                state = states[receiver] = MessageState()
            if bus is not None:
                bus.emit(
                    Deliver(
                        time=now, node=receiver, message_id=mid, sender=sender
                    )
                )
            receipts[receiver] = receipts.get(receiver, 0) + 1
            state.known_visited |= visited
            state.known_designated |= trail_designated
            if receiver in trail_designated:
                for entry in packet.trail:
                    if receiver in entry.designated:
                        state.designators.add(entry.node)
            state.last_packet = packet
            if not state.received:
                state.received = True
                state.first_packet = packet
                outcome.delivered.add(receiver)
                outcome.completed_at = now
            if state.committed:
                continue
            if state.decided:
                if state.designators:
                    self._react(flight, receiver, state, packet)
            elif not state.decision_pending:
                self._react(flight, receiver, state, packet)

    def _react(
        self,
        flight: _Flight,
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
                ctx = self._context(flight, node, state)
                self._forward(
                    flight, node, state, ctx, "forced-designation", packet
                )
            elif protocol.relaxed_designation:
                ctx = self._context(flight, node, state)
                if protocol.should_forward(ctx):
                    self._forward(
                        flight, node, state, ctx, "relaxed-designation", packet
                    )
            return
        state.decision_pending = True
        if self._immediate:
            # STATIC/FIRST_RECEIPT decide at once: no context, no backoff.
            delay = 0.0
        else:
            delay = protocol.decision_delay(
                self._context(flight, node, state), self.rng
            )
        if self._bus_on:
            self.bus.emit(
                BackoffScheduled(
                    time=self.scheduler.now,
                    node=node,
                    message_id=flight.outcome.message.message_id,
                    delay=delay,
                )
            )
        self.scheduler.schedule_in(
            delay, lambda f=flight, n=node: self._decide(f, n)
        )

    # ------------------------------------------------------------------

    def _decide(self, flight: _Flight, node: int) -> None:
        """A node's backoff timer fired: take its forward/non-forward status."""
        state = flight.states[node]
        if state.decided:
            return
        state.decided = True
        state.decision_pending = False
        expires = flight.outcome.message.expires_at
        if expires is not None and self.scheduler.now > expires:
            # The decision timer outlived the message: nothing to forward.
            state.committed = True
            self._drop(flight, node, node, "ttl_expired")
            return
        ctx = self._context(flight, node, state)
        forced = self.protocol.strict_designation and bool(state.designators)
        if forced or self.protocol.should_forward(ctx):
            # Relay the last copy delivered (see _drain_egress).
            self._forward(
                flight, node, state, ctx, "timer", state.last_packet, forced
            )
        else:
            self._announce(flight, node, False, "timer")
