"""System-level invariant: every protocol ensures coverage (Theorem 1).

For every registered protocol, on randomly sampled connected unit-disk
deployments with random sources, a broadcast under an ideal MAC must (a)
deliver the packet to every node and (b) leave a forward node set that is
a connected dominating set — the paper's definition of ensuring coverage.
Runs under hypothesis so shrinking pinpoints minimal failing deployments,
and exhaustively over every connected labelled graph on at most four
nodes from every source, plus every one on five nodes from source 0, so
no small topology is left to sampling.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import create, names
from repro.core.priority import scheme_by_name
from repro.graph.cds import is_cds
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.sim.mac import IdealMac


def _connected_graphs(n):
    """Every connected labelled graph on ``range(n)``."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        graph = Topology(nodes=range(n))
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                graph.add_edge(u, v)
        if graph.is_connected():
            yield graph


SMALL_GRAPHS = [graph for n in range(1, 5) for graph in _connected_graphs(n)]
FIVE_NODE_GRAPHS = list(_connected_graphs(5))


@pytest.mark.parametrize("protocol_name", names())
@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    n=st.integers(min_value=5, max_value=35),
    dense=st.booleans(),
    scheme_name=st.sampled_from(["id", "degree", "ncr"]),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_protocol_ensures_coverage(protocol_name, seed, n, dense, scheme_name):
    rng = random.Random(seed)
    degree = min(n - 1, 10.0 if dense else 5.0)
    net = random_connected_network(n, degree, rng)
    env = SimulationEnvironment(net.topology, scheme_by_name(scheme_name))
    protocol = create(protocol_name)
    protocol.prepare(env)
    source = rng.choice(net.topology.nodes())
    outcome = run_broadcast(
        env.graph, protocol, source, rng=random.Random(seed ^ 0x5DEECE),
        env=env,
    )

    assert outcome.delivered == set(net.topology.nodes()), (
        f"{protocol_name} missed "
        f"{sorted(set(net.topology.nodes()) - outcome.delivered)}"
    )
    assert source in outcome.forward_nodes
    assert is_cds(net.topology, outcome.forward_nodes)
    # Each node transmits at most once.
    assert outcome.transmissions == len(outcome.forward_nodes)


@pytest.mark.parametrize("protocol", names())
def test_protocol_covers_every_small_graph(protocol):
    # OEIS A001187: 1, 1, 4, 38 and 728 connected labelled graphs on
    # 1..5 nodes.
    assert len(SMALL_GRAPHS) == 1 + 1 + 4 + 38
    assert len(FIVE_NODE_GRAPHS) == 728
    runs = [
        (graph, source) for graph in SMALL_GRAPHS for source in graph.nodes()
    ]
    runs += [(graph, 0) for graph in FIVE_NODE_GRAPHS]
    for graph, source in runs:
        outcome = run_broadcast(
            graph, create(protocol), source,
            rng=random.Random(7), mac=IdealMac(),
        )
        where = f"{protocol} from {source} on {graph.edges()}"
        assert outcome.delivered == set(graph.nodes()), where
        assert is_cds(graph, outcome.forward_nodes), where
