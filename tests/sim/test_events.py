"""Tests for the typed event bus, JSONL round-trip, and golden traces."""

import hashlib
import random

import pytest

from repro.algorithms.base import Timing
from repro.algorithms.generic import GenericSelfPruning
from repro.core.priority import IdPriority
from repro.graph.generators import random_connected_network
from repro.graph.paperfigs import figure1
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.sim.events import (
    NULL_BUS,
    BackoffScheduled,
    Decide,
    Deliver,
    Designate,
    Drop,
    EventBus,
    HelloBeacon,
    Nack,
    RecordingBus,
    Transmit,
    events_from_jsonl,
    events_to_jsonl,
)


class TestEventBus:
    def test_inactive_without_subscribers(self):
        assert not EventBus().active

    def test_subscriber_receives_events(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        assert bus.active
        event = Transmit(time=0.0, node=1)
        bus.emit(event)
        assert seen == [event]

    def test_kind_filter(self):
        bus = EventBus()
        transmits = []
        bus.subscribe(transmits.append, kinds=[Transmit])
        bus.emit(Transmit(time=0.0, node=1))
        bus.emit(Deliver(time=1.0, node=2, sender=1))
        assert [e.node for e in transmits] == [1]

    def test_null_bus_is_inert(self):
        assert not NULL_BUS.active
        NULL_BUS.emit(Transmit(time=0.0, node=1))  # silently dropped
        with pytest.raises(TypeError):
            NULL_BUS.subscribe(lambda e: None)

    def test_recording_bus_records_in_order(self):
        bus = RecordingBus()
        assert bus.active
        bus.emit(Transmit(time=0.0, node=1))
        bus.emit(Deliver(time=1.0, node=2, sender=1))
        kinds = [e.kind for e in bus.recorded()]
        assert kinds == ["transmit", "receive"]
        # recorded() is a snapshot, not the live list.
        bus.recorded().clear()
        assert len(bus.events) == 2


class TestJsonlRoundTrip:
    EVENTS = [
        Decide(time=0.0, node=1, forward=True, reason="source"),
        Designate(time=0.0, node=1, designated=(2, 3)),
        Transmit(time=0.0, node=1, designated=(2, 3), size_units=5),
        Deliver(time=1.0, node=2, sender=1),
        Drop(time=1.0, node=3, sender=1, reason="collision"),
        BackoffScheduled(time=1.0, node=2, delay=0.25),
        HelloBeacon(time=0.0, node=4, round_index=0),
        Nack(time=2.0, node=3, target=2),
    ]

    def test_round_trip_preserves_everything(self):
        text = events_to_jsonl(self.EVENTS)
        assert events_from_jsonl(text) == self.EVENTS

    def test_encoding_is_deterministic(self):
        assert events_to_jsonl(self.EVENTS) == events_to_jsonl(self.EVENTS)

    def test_tuples_survive_json_lists(self):
        (event,) = events_from_jsonl(
            events_to_jsonl([Transmit(time=0.0, node=1, designated=(2, 3))])
        )
        assert event.designated == (2, 3)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            events_from_jsonl('{"type":"warp","time":0.0,"node":1}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            events_from_jsonl(
                '{"type":"transmit","time":0.0,"node":1,"phase":9}'
            )

    def test_blank_lines_skipped(self):
        text = "\n" + events_to_jsonl(self.EVENTS[:1]) + "\n\n"
        assert events_from_jsonl(text) == self.EVENTS[:1]


def _figure1_outcome():
    env = SimulationEnvironment(figure1().topology, IdPriority())
    protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
    protocol.prepare(env)
    return run_broadcast(
        env.graph, protocol, 1, rng=random.Random(1), collect_trace=True,
        env=env,
    )


#: The pinned structured trace of the paper's Figure 1 walkthrough:
#: source u=1 transmits, v=2 and w=3 hear it and (complete graph) both
#: take non-forward status.  Byte-stable under the fixed seed.
FIGURE1_GOLDEN = "\n".join(
    [
        '{"designated":false,"forward":true,"node":1,"reason":"source",'
        '"time":0.0,"type":"decide"}',
        '{"designated":[],"node":1,"size_units":5,"time":0.0,'
        '"type":"transmit"}',
        '{"node":2,"sender":1,"time":1.0,"type":"receive"}',
        '{"delay":0.0,"node":2,"time":1.0,"type":"backoff"}',
        '{"node":3,"sender":1,"time":1.0,"type":"receive"}',
        '{"delay":0.0,"node":3,"time":1.0,"type":"backoff"}',
        '{"designated":false,"forward":false,"node":2,"reason":"timer",'
        '"time":1.0,"type":"decide"}',
        '{"designated":false,"forward":false,"node":3,"reason":"timer",'
        '"time":1.0,"type":"decide"}',
    ]
)


#: sha256 of the Figure 9 sample's JSONL trace (505 events).
FIGURE9_SHA256 = (
    "6b8192679d39fcb8ac5ed5436c8421fd3fc21826994a02c4f9d5f5ab9f863912"
)


class TestGoldenTraces:
    def test_figure1_trace_is_pinned(self):
        outcome = _figure1_outcome()
        assert events_to_jsonl(outcome.events) == FIGURE1_GOLDEN
        assert sorted(outcome.forward_nodes) == [1]

    def test_figure9_trace_byte_stable_under_seed(self):
        # The Figure 9 sample network: 100 nodes, average degree 6,
        # seed 9 — same construction as run_fig9_sample.
        def one_run() -> str:
            rng = random.Random(9)
            network = random_connected_network(100, 6.0, rng)
            source = rng.choice(network.topology.nodes())
            env = SimulationEnvironment(network.topology, IdPriority())
            protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
            protocol.prepare(env)
            outcome = run_broadcast(
                env.graph, protocol, source, rng=random.Random(11),
                collect_trace=True, env=env,
            )
            return events_to_jsonl(outcome.events)

        first, second = one_run(), one_run()
        assert first == second
        assert events_from_jsonl(first) == events_from_jsonl(second)
        # A 100-node broadcast is a substantial trace, not a stub.
        assert len(first.splitlines()) == 505
        # Pinned to the bytes the retired single-broadcast engine wrote.
        assert hashlib.sha256(first.encode()).hexdigest() == FIGURE9_SHA256
