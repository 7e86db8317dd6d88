"""Tests for the broadcast engine: environment, session mechanics, outcomes."""

import random

import pytest

from repro.algorithms.base import BroadcastProtocol, NodeContext, Timing
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.core.priority import DegreePriority, IdPriority
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.sim.mac import CollisionMac, IdealMac


class TestEnvironment:
    def test_view_graph_cached(self):
        graph = Topology.path(5)
        env = SimulationEnvironment(graph)
        first = env.view_graph(0, 2)
        second = env.view_graph(0, 2)
        assert first is second

    def test_global_view_is_the_graph(self):
        graph = Topology.path(5)
        env = SimulationEnvironment(graph)
        assert env.view_graph(0, None) is graph

    def test_two_hop_set(self):
        graph = Topology.path(5)
        env = SimulationEnvironment(graph)
        assert env.two_hop_set(0) == {0, 1, 2}

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            SimulationEnvironment(Topology())

    def test_make_view_restricts_state(self):
        graph = Topology.path(5)
        env = SimulationEnvironment(graph, DegreePriority())
        view = env.make_view(
            env.view_graph(0, 1), frozenset({1, 4}), frozenset({3})
        )
        assert view.is_visited(1)
        assert not view.is_visited(4)  # outside the 1-hop view
        assert view.metrics[1] == (2.0,)


class TestFloodingSession:
    def test_everyone_forwards_once(self):
        graph = Topology.cycle(6)
        outcome = run_broadcast(graph, Flooding(), source=0)
        assert outcome.forward_nodes == set(range(6))
        assert outcome.transmissions == 6
        assert outcome.delivered == set(range(6))

    def test_unknown_source_rejected(self):
        env = SimulationEnvironment(Topology.path(3))
        with pytest.raises(KeyError):
            run_broadcast(env.graph, Flooding(), source=99, env=env)

    def test_single_node_graph(self):
        graph = Topology(nodes=[7])
        outcome = run_broadcast(graph, Flooding(), source=7)
        assert outcome.forward_nodes == {7}
        assert outcome.delivered == {7}

    def test_completion_time_reflects_depth(self):
        graph = Topology.path(5)
        outcome = run_broadcast(graph, Flooding(), source=0)
        # Unit-delay MAC: last receipt at hop distance 4; the final
        # transmission by node 4 lands at 5.
        assert outcome.completion_time == pytest.approx(5.0)

    def test_delivery_ratio(self):
        graph = Topology.path(4)
        outcome = run_broadcast(graph, Flooding(), source=0)
        assert outcome.delivery_ratio(graph) == 1.0


class TestSnoopingAndTrail:
    def test_trace_records_lifecycle(self):
        graph = Topology.path(3)
        outcome = run_broadcast(
            graph, Flooding(), source=0, collect_trace=True
        )
        assert {"transmit", "receive", "decide"} <= {
            e.kind for e in outcome.events
        }

    def test_forward_node_set_is_cds_for_pruning_protocol(self):
        rng = random.Random(11)
        net = random_connected_network(30, 6.0, rng)
        protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
        outcome = run_broadcast(net.topology, protocol, source=0, rng=rng)
        assert outcome.delivered == set(net.topology.nodes())

    def test_source_always_in_forward_set(self):
        rng = random.Random(12)
        net = random_connected_network(20, 6.0, rng)
        protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
        outcome = run_broadcast(net.topology, protocol, source=5, rng=rng)
        assert 5 in outcome.forward_nodes


class _DesignateFirstNeighbor(BroadcastProtocol):
    """Test double: strict designation of the smallest-id neighbor."""

    name = "test-designator"
    timing = Timing.FIRST_RECEIPT
    hops = 2
    piggyback_h = 1
    strict_designation = True

    def should_forward(self, ctx: NodeContext) -> bool:
        return False

    def designate(self, ctx):
        exclude = {ctx.node}
        if ctx.first_sender is not None:
            exclude.add(ctx.first_sender)
        others = ctx.neighbors() - exclude
        return frozenset({min(others)}) if others else frozenset()


class TestStrictDesignation:
    def test_designation_chain_walks_the_path(self):
        graph = Topology.path(5)
        outcome = run_broadcast(graph, _DesignateFirstNeighbor(), source=0)
        # 0 designates 1, 1 designates 2 (0 is the sender), ...; node 4,
        # designated by 3, forwards too under the strict rule.
        assert outcome.forward_nodes == {0, 1, 2, 3, 4}
        assert outcome.delivered == set(range(5))

    def test_undesignated_nodes_stay_silent(self):
        graph = Topology.star(5)
        outcome = run_broadcast(graph, _DesignateFirstNeighbor(), source=0)
        # The hub designates exactly one leaf; other leaves are silent but
        # still covered by the hub's single transmission.
        assert outcome.delivered == set(range(5))
        assert outcome.forward_nodes == {0, 1}

    def test_designations_recorded(self):
        graph = Topology.path(4)
        outcome = run_broadcast(graph, _DesignateFirstNeighbor(), source=0)
        assert outcome.designations[0] == frozenset({1})
        assert outcome.designations[1] == frozenset({2})


class TestCollisionMacIntegration:
    def test_collisions_can_break_flooding_coverage(self):
        # A dense network with zero jitter: simultaneous second-wave
        # transmissions collide at common receivers.
        rng = random.Random(5)
        net = random_connected_network(30, 10.0, rng)
        mac = CollisionMac(delay=1.0, jitter=0.0, window=0.5)
        outcome = run_broadcast(
            net.topology, Flooding(), source=0, rng=rng, mac=mac
        )
        assert mac.collisions > 0

    def test_jitter_restores_coverage(self):
        rng = random.Random(5)
        net = random_connected_network(30, 10.0, rng)

        def delivered(jitter: float) -> int:
            mac = CollisionMac(delay=1.0, jitter=jitter, window=0.05)
            outcome = run_broadcast(
                net.topology,
                Flooding(),
                source=0,
                rng=random.Random(1),
                mac=mac,
            )
            return len(outcome.delivered)

        assert delivered(8.0) >= delivered(0.0)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        rng = random.Random(77)
        net = random_connected_network(25, 6.0, rng)
        protocol = GenericSelfPruning(Timing.FIRST_RECEIPT_BACKOFF, hops=2)

        def run_once():
            env = SimulationEnvironment(net.topology, IdPriority())
            p = GenericSelfPruning(Timing.FIRST_RECEIPT_BACKOFF, hops=2)
            p.prepare(env)
            return run_broadcast(
                env.graph, p, source=0, rng=random.Random(123), env=env,
            )

        a, b = run_once(), run_once()
        assert a.forward_nodes == b.forward_nodes
        assert a.completion_time == b.completion_time
