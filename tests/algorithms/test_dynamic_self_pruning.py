"""Tests for the dynamic self-pruning family: SBA, Stojmenovic, LENWB."""

import random

import pytest

from repro.algorithms.lenwb import LENWB, connected_via_higher_priority
from repro.algorithms.sba import SBA
from repro.algorithms.stojmenovic import Stojmenovic
from repro.algorithms.generic import GenericSelfPruning
from repro.algorithms.base import Timing
from repro.core.priority import DegreePriority, IdPriority
from repro.core.views import global_view
from repro.graph.generators import random_connected_network
from repro.graph.paperfigs import figure6b
from repro.graph.topology import Topology
from repro.sim.engine import SimulationEnvironment, run_broadcast


def _all_delivered(graph, protocol, source=0, seed=1, scheme=None):
    outcome = run_broadcast(
        graph, protocol, source=source, scheme=scheme,
        rng=random.Random(seed),
    )
    return outcome.delivered == set(graph.nodes()), outcome


class TestSBA:
    def test_covers_random_networks(self):
        rng = random.Random(51)
        for _ in range(5):
            net = random_connected_network(30, 6.0, rng)
            ok, _ = _all_delivered(net.topology, SBA(), source=0)
            assert ok

    def test_prunes_below_flooding(self):
        rng = random.Random(52)
        net = random_connected_network(40, 10.0, rng)
        _ok, outcome = _all_delivered(net.topology, SBA(), source=0)
        assert outcome.forward_count < 40

    def test_star_leaves_stay_silent(self):
        ok, outcome = _all_delivered(Topology.star(6), SBA(), source=0)
        assert ok
        assert outcome.forward_nodes == {0}

    def test_generic_frb_never_worse_than_sba(self):
        """Figure 16's claim, instance-checked across random networks."""
        rng = random.Random(53)
        wins = 0
        for trial in range(8):
            net = random_connected_network(40, 6.0, rng)
            env = SimulationEnvironment(net.topology, IdPriority())
            source = rng.choice(net.topology.nodes())
            sba = SBA()
            sba.prepare(env)
            sba_out = run_broadcast(
                env.graph, sba, source, rng=random.Random(trial), env=env,
            )
            gen = GenericSelfPruning(Timing.FIRST_RECEIPT_BACKOFF, hops=2)
            gen.prepare(env)
            gen_out = run_broadcast(
                env.graph, gen, source, rng=random.Random(trial), env=env,
            )
            if gen_out.forward_count <= sba_out.forward_count:
                wins += 1
        assert wins >= 6  # dominant on the vast majority of instances


class TestStojmenovic:
    def test_covers_random_networks(self):
        rng = random.Random(54)
        for _ in range(5):
            net = random_connected_network(30, 6.0, rng)
            ok, _ = _all_delivered(
                net.topology, Stojmenovic(), source=0,
                scheme=DegreePriority(),
            )
            assert ok

    def test_non_gateways_never_forward(self):
        rng = random.Random(55)
        net = random_connected_network(30, 6.0, rng)
        env = SimulationEnvironment(net.topology, DegreePriority())
        protocol = Stojmenovic()
        protocol.prepare(env)
        outcome = run_broadcast(
            env.graph, protocol, 0, rng=random.Random(1), env=env,
        )
        assert outcome.forward_nodes - {0} <= protocol.gateways

    def test_at_most_wu_li_forwarders(self):
        """Neighbor elimination prunes within the static gateway set."""
        from repro.algorithms.wu_li import WuLi

        rng = random.Random(56)
        net = random_connected_network(30, 6.0, rng)
        env = SimulationEnvironment(net.topology, DegreePriority())
        stoj = Stojmenovic()
        stoj.prepare(env)
        wu_li = WuLi()
        wu_li.prepare(env)
        assert stoj.gateways == set(wu_li.forward_set)


class TestLENWB:
    def test_covers_random_networks(self):
        rng = random.Random(57)
        for _ in range(5):
            net = random_connected_network(30, 6.0, rng)
            ok, _ = _all_delivered(
                net.topology, LENWB(), source=0, scheme=DegreePriority()
            )
            assert ok

    def test_connected_via_higher_priority_basics(self):
        graph = Topology(edges=[(1, 2), (2, 3), (3, 4), (1, 5)])
        view = global_view(graph, IdPriority(), visited={3})
        # For v=1 the eligible nodes are 2, 3 (visited), 4, 5; the
        # component around 3 is {2, 3, 4} (5 hangs off v only), and the
        # reachable set excludes v itself.
        covered = connected_via_higher_priority(view, 3, 1)
        assert covered == {2, 3, 4}

    def test_component_plus_fringe(self):
        graph = Topology(edges=[(9, 8), (8, 7), (7, 1)])
        view = global_view(graph, IdPriority(), visited={9})
        covered = connected_via_higher_priority(view, 9, 1)
        # Component of 9 among ids > 1: {9, 8, 7}; fringe adds 1 — but v
        # itself is excluded from the answer.
        assert covered == {9, 8, 7}

    def test_start_below_threshold_returns_empty(self):
        graph = Topology(edges=[(1, 2), (2, 3)])
        view = global_view(graph, IdPriority())
        assert connected_via_higher_priority(view, 1, 3) == set()

    def test_figure6b_lenwb_prunes_node2(self):
        """LENWB's condition via one visited node on the 6(b) fixture.

        With 5 visited and the virtual visited clique joining 6, the
        component around the last forwarder dominates N(2).
        """
        fig = figure6b()
        protocol = LENWB()
        ok, outcome = _all_delivered(
            fig.topology, protocol, source=5, seed=3
        )
        assert ok
