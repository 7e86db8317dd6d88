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

Plus focused unit tests for backpressure, horizons, the coverage
kernel's shared epoch cache, and the run-once guard.
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
from repro.graph.generators import random_connected_network
from repro.instrument import collecting
from repro.sim import engine as engine_module
from repro.sim.engine import SimulationEnvironment
from repro.sim.events import Deliver, Drop, Transmit, events_to_jsonl
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
