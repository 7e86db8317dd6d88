"""Tests for SimulationEnvironment.with_scheme and cache sharing."""

import random

from repro.core.priority import DegreePriority, IdPriority
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.sim.engine import SimulationEnvironment


class TestWithScheme:
    def test_shares_view_caches(self):
        graph = Topology.cycle(8)
        base = SimulationEnvironment(graph, IdPriority())
        warmed = base.view_graph(0, 2)
        sibling = base.with_scheme(DegreePriority())
        assert sibling.view_graph(0, 2) is warmed
        assert sibling.graph is base.graph

    def test_metrics_follow_the_new_scheme(self):
        graph = Topology.star(5)
        base = SimulationEnvironment(graph, IdPriority())
        sibling = base.with_scheme(DegreePriority())
        assert base.metrics[0] == ()
        assert sibling.metrics[0] == (4.0,)

    def test_views_reflect_the_new_priorities(self):
        rng = random.Random(3)
        net = random_connected_network(15, 5.0, rng)
        base = SimulationEnvironment(net.topology, IdPriority())
        sibling = base.with_scheme(DegreePriority())
        view_a = base.make_view(
            base.view_graph(0, 2), frozenset(), frozenset()
        )
        view_b = sibling.make_view(
            sibling.view_graph(0, 2), frozenset(), frozenset()
        )
        # Same topology object, different priority tuples.
        assert view_a.graph is view_b.graph
        some_node = next(iter(view_a.graph.nodes()))
        assert len(view_b.priority(some_node)) == len(
            view_a.priority(some_node)
        ) + 1  # degree adds one metric component
