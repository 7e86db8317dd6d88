"""Corner-topology matrix: every protocol on every degenerate shape.

The random-network invariant test exercises typical deployments; this
matrix pins the degenerate shapes where off-by-one bugs live — paths
(maximal diameter), cycles (two disjoint routes), stars (one cut
vertex), complete graphs (no forwarder needed beyond the source),
two-node links, a barbell (two cliques joined by a bridge), and a
random grid (many same-instant copies, so the relayed copy matters).
"""

import random

import pytest

from repro.algorithms.registry import create, names
from repro.graph.cds import is_cds
from repro.graph.generators import random_grid_network
from repro.graph.topology import Topology
from repro.sim.engine import run_broadcast


def _barbell() -> Topology:
    graph = Topology()
    left = [0, 1, 2, 3]
    right = [10, 11, 12, 13]
    for clique in (left, right):
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                graph.add_edge(u, v)
    graph.add_edge(3, 10)  # the bridge
    return graph


TOPOLOGIES = {
    "two-nodes": Topology(edges=[(0, 1)]),
    "path-6": Topology.path(6),
    "cycle-7": Topology.cycle(7),
    "star-8": Topology.star(8),
    "complete-5": Topology.complete(5),
    "barbell": _barbell(),
    "random-grid-8": random_grid_network(8, 0.7, random.Random(3)).topology,
}


@pytest.mark.parametrize("protocol_name", names())
@pytest.mark.parametrize("shape", TOPOLOGIES)
def test_every_protocol_covers_every_shape(protocol_name, shape):
    graph = TOPOLOGIES[shape]
    for source in (graph.nodes()[0], graph.nodes()[-1]):
        outcome = run_broadcast(
            graph, create(protocol_name), source=source,
            rng=random.Random(7),
        )
        assert outcome.delivered == set(graph.nodes()), (
            f"{protocol_name} on {shape} from {source} missed "
            f"{sorted(set(graph.nodes()) - outcome.delivered)}"
        )
        assert is_cds(graph, outcome.forward_nodes)


@pytest.mark.parametrize("protocol_name", names())
def test_complete_graph_single_transmission(protocol_name):
    """On K_n one transmission reaches everyone; pruning protocols must
    not forward more than the densest reasonable bound (flooding aside).
    """
    graph = Topology.complete(6)
    outcome = run_broadcast(
        graph, create(protocol_name), source=0, rng=random.Random(1)
    )
    assert outcome.delivered == set(range(6))
    if protocol_name != "flooding":
        assert outcome.forward_count <= 2


@pytest.mark.parametrize("protocol_name", names())
def test_path_graph_forwarders_are_interior(protocol_name):
    """On a path every interior node is a cut vertex: all must forward
    (except possibly the far endpoint)."""
    graph = Topology.path(5)
    outcome = run_broadcast(
        graph, create(protocol_name), source=0, rng=random.Random(2)
    )
    assert {1, 2, 3} <= outcome.forward_nodes
    assert outcome.delivered == set(range(5))
