"""A round-synchronous broadcast executor.

The paper's custom simulator advances in waves: all nodes that decided
to forward in round ``r`` transmit simultaneously, and their neighbors
decide in round ``r + 1``.  This module implements that executor
directly — no event queue, no MAC, no timers — for two purposes:

* **differential validation** — for first-receipt and static protocols
  under the unit-delay ideal MAC, the discrete-event engine must produce
  the *same forward set*, because its delivery schedule degenerates to
  synchronous waves; the tests assert exact agreement protocol by
  protocol;
* **speed** — the wave loop is the fastest way to run large FR sweeps.

Backoff timings (FRB/FRBD) genuinely depend on sub-round timing and are
rejected here.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, List, Optional, Set

from ..algorithms.base import BroadcastProtocol, NodeContext, Timing
from ..graph.topology import Topology
from ..instrument import _STACK as _COUNTER_STACK
from .engine import BroadcastOutcome, SimulationEnvironment
from .events import (
    NULL_BUS,
    Decide,
    Deliver,
    Designate,
    EventBus,
    RecordingBus,
    Transmit,
)
from .packet import Packet
from .trace import TraceRecorder

__all__ = ["round_seed", "run_round_broadcast"]

_SUPPORTED = (Timing.STATIC, Timing.FIRST_RECEIPT)

#: Monotone sequence distinguishing same-process default-seeded runs.
_ROUND_SEQUENCE = itertools.count()


def round_seed(sequence: int) -> int:
    """The documented default-RNG seed of one :func:`run_round_broadcast`.

    ``sha256("run_round_broadcast|{sequence}")`` truncated to 64 bits —
    the same derivation as :func:`repro.sim.service.service_seed`, under
    an executor-specific tag so wave-executor draws never correlate
    with discrete-event backoff streams.  A shared fixed default (the
    old ``Random(0)``) made every default-seeded wave run in a process
    draw identically; pass an explicit ``rng`` for cross-process
    reproducibility.
    """
    digest = hashlib.sha256(f"run_round_broadcast|{sequence}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_round_broadcast(
    env: SimulationEnvironment,
    protocol: BroadcastProtocol,
    source: int,
    rng: Optional[random.Random] = None,
    bus: Optional[EventBus] = None,
    collect_trace: bool = False,
) -> BroadcastOutcome:
    """Execute one broadcast in synchronous waves.

    Matches the discrete-event engine exactly for static and
    first-receipt protocols under a unit-delay ideal MAC (delivery order
    within a wave follows the transmitting nodes' scheduling order,
    mirroring the engine's FIFO tie-break).  Typed events go to ``bus``
    (or a recording bus under ``collect_trace=True``) with the wave
    number as the timestamp; transmissions and decisions are tallied
    into the active instrumentation scope.
    """
    if protocol.timing not in _SUPPORTED:
        raise ValueError(
            f"round executor supports static/first-receipt timings, "
            f"got {protocol.timing}"
        )
    if source not in env.graph:
        raise KeyError(f"source {source} not in the deployment graph")
    rng = rng or random.Random(round_seed(next(_ROUND_SEQUENCE)))
    if bus is None:
        bus = RecordingBus() if collect_trace else NULL_BUS
    graph = env.graph

    known_visited: Dict[int, Set[int]] = {
        node: set() for node in graph.nodes()
    }
    known_designated: Dict[int, Set[int]] = {
        node: set() for node in graph.nodes()
    }
    designators: Dict[int, Set[int]] = {node: set() for node in graph.nodes()}
    first_packet: Dict[int, Packet] = {}
    receipt_counts: Dict[int, int] = {node: 0 for node in graph.nodes()}
    decided: Set[int] = set()
    forwarded: Set[int] = set()
    designations: Dict[int, frozenset] = {}

    def context(node: int) -> NodeContext:
        return NodeContext(
            node=node,
            is_source=(node == source),
            time=float(rounds),
            env=env,
            hops=protocol.hops,
            known_visited=frozenset(known_visited[node]),
            known_designated=frozenset(known_designated[node]),
            designators=frozenset(designators[node]),
            first_packet=first_packet.get(node),
            rng=rng,
        )

    def transmit(node: int, incoming: Optional[Packet]) -> Packet:
        ctx = context(node)
        chosen = protocol.designate(ctx)
        designations[node] = chosen
        forwarded.add(node)
        known_visited[node].add(node)
        known_designated[node] |= chosen
        two_hop = (
            env.two_hop_set(node) if protocol.piggyback_two_hop else None
        )
        if incoming is None:
            packet = Packet.original(
                node, chosen, protocol.piggyback_h, two_hop
            )
        else:
            packet = incoming.forwarded(
                node, chosen, protocol.piggyback_h, two_hop
            )
        if _COUNTER_STACK:
            counters = _COUNTER_STACK[-1]
            counters.transmissions += 1
            counters.bytes_transmitted += packet.size_units()
        if bus.active:
            announced = tuple(sorted(chosen))
            if announced:
                bus.emit(
                    Designate(
                        time=float(rounds), node=node, designated=announced
                    )
                )
            bus.emit(
                Transmit(
                    time=float(rounds),
                    node=node,
                    designated=announced,
                    size_units=packet.size_units(),
                )
            )
        return packet

    rounds = 0
    known_visited[source].add(source)
    decided.add(source)
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].decisions += 1
    if bus.active:
        bus.emit(Decide(time=0.0, node=source, forward=True, reason="source"))
    wave: List[tuple] = [(source, transmit(source, None))]

    while wave:
        rounds += 1
        # Deliver the whole wave first (knowledge accumulates) with
        # late-designation handling inline per delivery, then let the new
        # receivers decide — exactly the engine's event order for
        # unit-delay delivery.
        newly_received: List[int] = []
        next_wave: List[tuple] = []
        for sender, packet in wave:
            for receiver in sorted(graph.neighbors(sender)):
                receipt_counts[receiver] += 1
                if bus.active:
                    bus.emit(
                        Deliver(
                            time=float(rounds), node=receiver, sender=sender
                        )
                    )
                known_visited[receiver].add(sender)
                for entry in packet.trail:
                    known_visited[receiver].add(entry.node)
                    known_designated[receiver] |= entry.designated
                    if receiver in entry.designated:
                        designators[receiver].add(entry.node)
                if receiver not in first_packet:
                    first_packet[receiver] = packet
                    if receiver not in decided:
                        newly_received.append(receiver)
                elif (
                    receiver in decided
                    and receiver not in forwarded
                    and designators[receiver]
                ):
                    # Late designation after a decision: strict forces,
                    # relaxed re-evaluates at the raised priority — with
                    # the knowledge available at this instant, matching
                    # the engine's per-delivery handling.
                    if protocol.strict_designation:
                        if _COUNTER_STACK:
                            _COUNTER_STACK[-1].decisions += 1
                        if bus.active:
                            bus.emit(
                                Decide(
                                    time=float(rounds),
                                    node=receiver,
                                    forward=True,
                                    reason="forced-designation",
                                )
                            )
                        next_wave.append((receiver, transmit(receiver, packet)))
                    elif protocol.relaxed_designation:
                        if protocol.should_forward(context(receiver)):
                            if _COUNTER_STACK:
                                _COUNTER_STACK[-1].decisions += 1
                            if bus.active:
                                bus.emit(
                                    Decide(
                                        time=float(rounds),
                                        node=receiver,
                                        forward=True,
                                        reason="relaxed-designation",
                                    )
                                )
                            next_wave.append(
                                (receiver, transmit(receiver, packet))
                            )
        for node in newly_received:
            if node in decided:
                continue
            decided.add(node)
            ctx = context(node)
            forced = protocol.strict_designation and bool(designators[node])
            forward = forced or protocol.should_forward(ctx)
            if _COUNTER_STACK:
                _COUNTER_STACK[-1].decisions += 1
            if bus.active:
                bus.emit(
                    Decide(
                        time=float(rounds),
                        node=node,
                        forward=forward,
                        reason="timer",
                        designated=forced,
                    )
                )
            if forward:
                next_wave.append((node, transmit(node, first_packet[node])))
        wave = next_wave

    delivered = {node for node, count in receipt_counts.items() if count}
    delivered.add(source)
    events = bus.recorded()
    return BroadcastOutcome(
        source=source,
        forward_nodes=set(forwarded),
        delivered=delivered,
        transmissions=len(forwarded),
        completion_time=float(rounds),
        designations=dict(designations),
        receipt_counts=receipt_counts,
        events=events,
        trace=(
            TraceRecorder.from_events(events)
            if collect_trace and events is not None
            else None
        ),
    )
