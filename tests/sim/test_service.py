"""The event engine: byte-identity, dedup, and drop properties.

Three 50-seed property suites back the engine's contracts:

* a one-message :class:`~repro.sim.traffic.SingleShot` run is
  *byte-identical* to what the retired single-broadcast engine produced
  — forward sets, delivered sets, receipt counts, completion time and
  the typed event stream, pinned as per-seed fingerprints in
  ``golden_single_message.json`` — on both coverage backends (sets and
  bitset);
* under concurrent messages, per-message delivery stays duplicate-free:
  each node counts at most one first receipt and transmits each message
  at most once;
* a message dropped at a node (TTL expiry or queue backpressure) is
  never transmitted by that node afterwards, and no intact copy is
  ever delivered after the message's expiry time.

A fourth golden suite pins concurrent multi-message runs under the
jittered, colliding and ideal MACs — per-receiver arrival times,
poisoned copies, TTL drops at delivery and queue backpressure — as
per-seed fingerprints in ``golden_service_stream.json``.

Plus focused unit tests for backpressure and egress FIFO order,
collisions inside one delivery batch, the scheduler event count,
horizons, the coverage kernel's shared epoch cache, and the run-once
guard.
"""

import hashlib
import json
import os
import random

import pytest

from repro.algorithms.base import Timing
from repro.algorithms.dominant_pruning import DominantPruning
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.algorithms.mpr import MultipointRelay
from repro.algorithms.registry import create
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.instrument import collecting
from repro.sim import engine as engine_module
from repro.sim.engine import SimulationEnvironment
from repro.sim.events import Decide, Deliver, Drop, Transmit, events_to_jsonl
from repro.sim.mac import CollisionMac, IdealMac, JitterMac
from repro.sim.service import ServiceEngine, service_seed
from repro.sim.traffic import (
    Message,
    PoissonTraffic,
    ScriptedTraffic,
    SingleShot,
    ZipfTraffic,
)

SEEDS = range(50)

BACKENDS = ("sets", "bitset")

#: Per-seed fingerprints of the single-message suite below, recorded from
#: the retired single-broadcast engine (identical on every backend).
#: After an *intentional* change to event or RNG order, regenerate with
#: ``{str(seed): _fingerprint(_single_message(seed)) for seed in SEEDS}``.
with open(
    os.path.join(os.path.dirname(__file__), "golden_single_message.json")
) as _handle:
    GOLDEN_SINGLE_MESSAGE = json.load(_handle)

PROTOCOLS = (
    Flooding,
    lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2),
    lambda: GenericSelfPruning(Timing.FIRST_RECEIPT_BACKOFF, hops=2),
    DominantPruning,
    MultipointRelay,
)


def _deployment(seed: int):
    rng = random.Random(seed)
    net = random_connected_network(rng.randint(12, 30), 6.0, rng)
    return net.topology


def _prepared(graph, factory):
    env = SimulationEnvironment(graph)
    protocol = factory()
    protocol.prepare(env)
    return env, protocol


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(outcome) -> dict:
    """Digests of every observable field and of the typed event stream."""
    fields = {
        "forward": sorted(outcome.forward_nodes),
        "delivered": sorted(outcome.delivered),
        "transmissions": outcome.transmissions,
        "completion": repr(outcome.completion_time),
        "designations": sorted(
            [node, sorted(chosen)]
            for node, chosen in outcome.designations.items()
        ),
        "receipts": sorted(outcome.receipt_counts.items()),
        "bytes": outcome.bytes_transmitted,
    }
    return {
        "outcome": _short(
            json.dumps(fields, sort_keys=True, separators=(",", ":"))
        ),
        # message_id 0 elides from the payloads, so single-broadcast
        # event streams keep their byte encoding.
        "events": _short(events_to_jsonl(outcome.events)),
    }


def _single_message(seed: int):
    graph = _deployment(seed)
    env, protocol = _prepared(graph, PROTOCOLS[seed % len(PROTOCOLS)])
    source_seed = random.Random(seed).randrange(2 ** 32)
    source = random.Random(source_seed).choice(graph.nodes())
    outcome = ServiceEngine(
        env,
        protocol,
        SingleShot(source),
        rng=random.Random(seed ^ 0xDEAD),
        collect_trace=True,
    ).run()
    return outcome.single_outcome()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_single_message_service_is_byte_identical_to_legacy(
    seed, backend, monkeypatch
):
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
    assert _fingerprint(_single_message(seed)) == GOLDEN_SINGLE_MESSAGE[str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_messages_deliver_without_duplicates(seed):
    graph = _deployment(seed)
    env, protocol = _prepared(
        graph, PROTOCOLS[seed % len(PROTOCOLS)]
    )
    traffic = ZipfTraffic(
        rate=3.0, count=8, exponent=1.0, seed=seed, size_units=4
    )
    outcome = ServiceEngine(
        env,
        protocol,
        traffic,
        rng=random.Random(seed),
        collect_trace=True,
    ).run()

    assert len(outcome.messages) == 8
    transmits = {}
    for event in outcome.events:
        if isinstance(event, Transmit):
            key = (event.message_id, event.node)
            transmits[key] = transmits.get(key, 0) + 1
    # One transmission per (message, node) — the dedup table holds even
    # while several broadcasts are in flight on the shared scheduler.
    assert all(count == 1 for count in transmits.values())
    for m in outcome.messages:
        mid = m.message.message_id
        assert m.forward_nodes == {
            node for (emid, node) in transmits if emid == mid
        }
        # Receipt counts are bounded by degree: at most one copy per
        # transmitting neighbor per message.
        for node, count in m.receipt_counts.items():
            assert 1 <= count <= graph.degree(node)
        assert m.message.source in m.delivered
        if m.delivered_all:
            assert m.delivered == set(graph.nodes())
            assert m.delivery_latency is not None
            assert m.delivery_latency >= 0


@pytest.mark.parametrize("seed", SEEDS)
def test_dropped_messages_stay_dropped(seed):
    graph = _deployment(seed)
    env, protocol = _prepared(
        graph, PROTOCOLS[seed % len(PROTOCOLS)]
    )
    # A harsh regime: short TTLs, tiny queues, big payloads — plenty of
    # queue_full and ttl_expired drops to exercise.
    traffic = PoissonTraffic(
        rate=8.0, count=12, seed=seed, size_units=30, ttl=2.5
    )
    outcome = ServiceEngine(
        env,
        protocol,
        traffic,
        rng=random.Random(seed),
        queue_capacity=1,
        collect_trace=True,
    ).run()

    expiry = {
        m.message.message_id: m.message.expires_at for m in outcome.messages
    }
    drops_at = {}
    for event in outcome.events:
        if isinstance(event, Drop) and event.reason in (
            "ttl_expired",
            "queue_full",
        ):
            key = (event.message_id, event.node)
            drops_at.setdefault(key, event.time)
        if isinstance(event, Deliver):
            # No intact copy is ever delivered past its expiry.
            assert event.time <= expiry[event.message_id]
    for event in outcome.events:
        if isinstance(event, Transmit):
            dropped = drops_at.get((event.message_id, event.node))
            # A node that dropped a message never transmits it later.
            assert dropped is None or event.time < dropped
    total_drops = sum(
        m.drops.get("ttl_expired", 0) + m.drops.get("queue_full", 0)
        for m in outcome.messages
    )
    assert total_drops == outcome.messages_dropped


#: The multi-message suite: every (protocol, MAC) pairing once, tiny
#: egress queues, short TTLs and big payloads so every drop path fires.
STREAM_SEEDS = range(15)

STREAM_MACS = (
    lambda: JitterMac(jitter=0.5),
    lambda: CollisionMac(jitter=0.4, window=0.1),
    IdealMac,
)

#: The one seed cut off by a horizon instead of running to quiescence.
STREAM_HORIZON_SEED = 7

#: Drop kinds the suite must exercise somewhere across its seeds;
#: ``ttl_expired@deliver`` is a copy that arrived after its TTL.
STREAM_DROP_KINDS = (
    "loss", "collision", "queue_full", "ttl_expired", "ttl_expired@deliver",
)

#: Per-seed fingerprints of :func:`_stream`.  After an *intentional*
#: change to event or RNG order, regenerate with
#: ``{str(seed): _stream_fingerprint(_stream(seed)) for seed in STREAM_SEEDS}``.
with open(
    os.path.join(os.path.dirname(__file__), "golden_service_stream.json")
) as _handle:
    GOLDEN_SERVICE_STREAM = json.load(_handle)


def _stream(seed: int):
    graph = _deployment(seed)
    env, protocol = _prepared(graph, PROTOCOLS[seed % len(PROTOCOLS)])
    traffic = PoissonTraffic(
        rate=4.0, count=6, seed=seed, size_units=12, ttl=3.0
    )
    engine = ServiceEngine(
        env,
        protocol,
        traffic,
        rng=random.Random(seed ^ 0xBEEF),
        mac=STREAM_MACS[seed % len(STREAM_MACS)](),
        queue_capacity=1,
        collect_trace=True,
    )
    return engine.run(horizon=6.0 if seed == STREAM_HORIZON_SEED else None)


def _stream_fingerprint(outcome) -> dict:
    """Digests of every per-message field and the event stream, plus a
    plain tally of the drops so the suite's coverage is checkable."""
    fields = {
        "messages": [
            {
                "forward": sorted(m.forward_nodes),
                "delivered": sorted(m.delivered),
                "receipts": sorted(m.receipt_counts.items()),
                "designations": sorted(
                    [node, sorted(chosen)]
                    for node, chosen in m.designations.items()
                ),
                "bytes": m.bytes_transmitted,
                "completed_at": repr(m.completed_at),
                "drops": sorted(m.drops.items()),
            }
            for m in outcome.messages
        ],
        "completion": repr(outcome.completion_time),
        "queue_depth_max": outcome.queue_depth_max,
        "messages_dropped": outcome.messages_dropped,
    }
    drops: dict = {}
    for event in outcome.events:
        if isinstance(event, Drop):
            kind = event.reason
            if kind == "ttl_expired" and event.sender != event.node:
                kind = "ttl_expired@deliver"
            drops[kind] = drops.get(kind, 0) + 1
    return {
        "outcome": _short(
            json.dumps(fields, sort_keys=True, separators=(",", ":"))
        ),
        "events": _short(events_to_jsonl(outcome.events)),
        "drops": dict(sorted(drops.items())),
    }


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_service_stream_is_byte_identical_to_golden(seed):
    assert _stream_fingerprint(_stream(seed)) == GOLDEN_SERVICE_STREAM[str(seed)]


def test_service_stream_golden_exercises_every_drop_path():
    seen = set()
    for entry in GOLDEN_SERVICE_STREAM.values():
        seen.update(kind for kind, count in entry["drops"].items() if count)
    assert set(STREAM_DROP_KINDS) <= seen
    assert sorted(GOLDEN_SERVICE_STREAM, key=int) == [
        str(seed) for seed in STREAM_SEEDS
    ]


class TestBackpressure:
    def test_saturating_burst_fills_queue_and_drops(self):
        graph = _deployment(1)
        env, protocol = _prepared(graph, Flooding)
        source = graph.nodes()[0]
        script = [
            Message(message_id=i, source=source, injected_at=0.0, size_units=50)
            for i in range(12)
        ]
        outcome = ServiceEngine(
            env,
            protocol,
            ScriptedTraffic(script),
            rng=random.Random(0),
            queue_capacity=2,
        ).run()
        assert outcome.queue_depth_max == 2
        drops = sum(
            m.drops.get("queue_full", 0) for m in outcome.messages
        )
        assert drops > 0
        assert outcome.messages_dropped >= drops

    def test_unbounded_queue_never_drops_for_backpressure(self):
        graph = _deployment(2)
        env, protocol = _prepared(graph, Flooding)
        source = graph.nodes()[0]
        script = [
            Message(message_id=i, source=source, injected_at=0.0, size_units=50)
            for i in range(12)
        ]
        outcome = ServiceEngine(
            env,
            protocol,
            ScriptedTraffic(script),
            rng=random.Random(0),
            queue_capacity=None,
        ).run()
        assert all(
            "queue_full" not in m.drops for m in outcome.messages
        )
        assert outcome.queue_depth_max > 0


    def test_intent_at_the_instant_the_transmitter_frees_waits_its_turn(self):
        """A forward intent arriving exactly when the transmitter frees,
        before the armed drain fires, queues behind earlier intents."""
        graph = Topology()
        graph.add_edge(0, 1)
        env, protocol = _prepared(graph, Flooding)
        # A 4-unit packet keeps the transmitter busy for 1.0.
        script = [
            Message(message_id=i, source=0, injected_at=at)
            for i, at in enumerate((0.0, 0.5, 1.0))
        ]
        outcome = ServiceEngine(
            env,
            protocol,
            ScriptedTraffic(script),
            rng=random.Random(0),
            tx_time_per_unit=0.25,
            collect_trace=True,
        ).run()
        sent = [
            (event.time, event.message_id)
            for event in outcome.events
            if isinstance(event, Transmit) and event.node == 0
        ]
        assert sent == [(0.0, 0), (1.0, 1), (2.0, 2)]


class TestDeliveryBatch:
    def test_forward_forced_early_in_a_batch_poisons_a_later_copy(self):
        """Node 9's copies land at once; node 1, earlier in the batch, is
        designated late and forwards on the spot, and its copies collide
        with the ones nodes 3 and 6 have yet to take from the batch."""
        graph = random_connected_network(10, 6.0, random.Random(40)).topology
        env, protocol = _prepared(graph, lambda: create("hybrid-maxdeg"))
        events = ServiceEngine(
            env,
            protocol,
            SingleShot(0),
            rng=random.Random(0),
            mac=CollisionMac(window=1.2),
            collect_trace=True,
        ).run().events
        forced = events.index(
            Decide(
                time=3.0,
                node=1,
                message_id=0,
                forward=True,
                reason="forced-designation",
            )
        )
        for node in (3, 6):
            dropped = events.index(
                Drop(
                    time=3.0,
                    node=node,
                    message_id=0,
                    sender=9,
                    reason="collision",
                )
            )
            assert dropped > forced
            assert Deliver(
                time=3.0, node=node, message_id=0, sender=9
            ) not in events


class TestEventCount:
    def test_one_event_per_transmission_arrival_not_per_receiver(self):
        """Injections, one delivery batch per transmission (ideal MAC)
        and one decision per first receipt — nothing per receiver."""
        graph = random_connected_network(60, 18.0, random.Random(3)).topology
        env, protocol = _prepared(
            graph, lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
        )
        outcome = ServiceEngine(
            env,
            protocol,
            PoissonTraffic(rate=2.0, count=6, seed=5),
            rng=random.Random(5),
            tx_time_per_unit=0.0,
            collect_counters=True,
        ).run()
        counters = outcome.counters
        first_receipts = sum(len(m.delivered) - 1 for m in outcome.messages)
        assert counters.scheduler_events == (
            len(outcome.messages) + counters.transmissions + first_receipts
        )


class TestEpochCache:
    """The coverage kernel's shared epoch cache changes no decision."""

    @staticmethod
    def _forwards(strong, hops, monkeypatch, backend, share):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
        if not share:
            # Every view falls back to its own per-view cache.
            monkeypatch.setattr(
                engine_module, "share_epoch_cache", lambda view, cache: view
            )
        graph = _deployment(6)
        env, protocol = _prepared(
            graph,
            lambda: GenericSelfPruning(
                Timing.FIRST_RECEIPT, hops=hops, strong=strong
            ),
        )
        traffic = PoissonTraffic(rate=2.0, count=12, seed=6, size_units=4)
        with collecting() as counters:
            outcome = ServiceEngine(
                env, protocol, traffic, rng=random.Random(6)
            ).run()
        monkeypatch.undo()
        forwards = [
            (sorted(m.forward_nodes), sorted(m.delivered))
            for m in outcome.messages
        ]
        return forwards, counters.coverage_epoch_reuses

    @pytest.mark.parametrize("hops", [2, None])
    @pytest.mark.parametrize("strong", [True, False])
    def test_forward_sets_identical_with_and_without_sharing(
        self, strong, hops, monkeypatch
    ):
        shared, reuses = self._forwards(
            strong, hops, monkeypatch, "bitset", share=True
        )
        alone, alone_reuses = self._forwards(
            strong, hops, monkeypatch, "bitset", share=False
        )
        oracle, _ = self._forwards(
            strong, hops, monkeypatch, "sets", share=True
        )
        assert shared == alone == oracle
        # The shortcut really ran with sharing, and never without it.
        assert reuses > 0
        assert alone_reuses == 0


class TestRunSemantics:
    def test_engine_runs_only_once(self):
        graph = _deployment(5)
        env, protocol = _prepared(graph, Flooding)
        engine = ServiceEngine(
            env, protocol, SingleShot(graph.nodes()[0])
        )
        engine.run()
        with pytest.raises(RuntimeError):
            engine.run()

    def test_horizon_truncates_the_run(self):
        graph = _deployment(6)
        env, protocol = _prepared(graph, Flooding)
        traffic = PoissonTraffic(rate=1.0, count=30, seed=6)
        outcome = ServiceEngine(
            env, protocol, traffic, rng=random.Random(6)
        ).run(horizon=3.0)
        assert outcome.completion_time <= 3.0
        assert outcome.delivered_count < 30

    def test_default_rng_derives_from_service_seed(self):
        assert service_seed(0) != service_seed(1)

    def test_single_outcome_requires_one_message(self):
        graph = _deployment(7)
        env, protocol = _prepared(graph, Flooding)
        outcome = ServiceEngine(
            env,
            protocol,
            PoissonTraffic(rate=1.0, count=2, seed=7),
            rng=random.Random(7),
        ).run()
        with pytest.raises(ValueError):
            outcome.single_outcome()
