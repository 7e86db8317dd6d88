"""Property-based engine invariants with an adversarial chaos protocol.

The engine's structural guarantees must hold for ANY protocol, however
badly behaved: nodes transmit at most once, nothing is delivered without
an adjacent transmission, the delivered set is the closure of the
forwarders' neighborhoods, and the forward set (when the broadcast
reaches everyone) is connected through the source.  A chaos protocol
making random decisions probes all of that.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import BroadcastProtocol, NodeContext, Timing
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment, run_broadcast


class ChaosProtocol(BroadcastProtocol):
    """Random decisions, random designations, random timing."""

    name = "chaos"
    hops = 2

    def __init__(self, seed: int, timing: Timing, strict: bool) -> None:
        self._rng = random.Random(seed)
        self.timing = timing
        self.strict_designation = strict
        self.piggyback_h = self._rng.choice([0, 1, 2])

    def should_forward(self, ctx: NodeContext) -> bool:
        return self._rng.random() < 0.5

    def designate(self, ctx: NodeContext) -> frozenset:
        neighbors = sorted(ctx.neighbors())
        if not neighbors or self._rng.random() < 0.3:
            return frozenset()
        count = self._rng.randint(1, len(neighbors))
        return frozenset(self._rng.sample(neighbors, count))


@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    timing=st.sampled_from(
        [
            Timing.FIRST_RECEIPT,
            Timing.FIRST_RECEIPT_BACKOFF,
            Timing.FIRST_RECEIPT_BACKOFF_DEGREE,
        ]
    ),
    strict=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_engine_invariants_under_chaos(seed, timing, strict):
    rng = random.Random(seed)
    net = random_connected_network(20, 5.0, rng)
    graph = net.topology
    env = SimulationEnvironment(graph)
    protocol = ChaosProtocol(seed, timing, strict)
    source = rng.choice(graph.nodes())
    outcome = run_broadcast(
        env.graph, protocol, source, rng=random.Random(seed ^ 0xABCDEF),
        env=env,
    )

    # One transmission per forwarder, source always transmits.
    assert outcome.transmissions == len(outcome.forward_nodes)
    assert source in outcome.forward_nodes

    # Delivered = closed neighborhoods of the forwarders.
    expected = {source}
    for forwarder in outcome.forward_nodes:
        expected |= graph.neighbors(forwarder) | {forwarder}
    assert outcome.delivered == expected

    # Every non-source forwarder received the packet before sending.
    assert outcome.forward_nodes - {source} <= outcome.delivered

    # Forwarders form a connected set (each triggered by a neighbor).
    assert graph.is_connected_subset(outcome.forward_nodes)

    # Receipt counts: a delivered non-source node heard >= 1 copy and at
    # most one copy per neighbor.
    for node in outcome.delivered - {source}:
        count = outcome.receipt_counts[node]
        assert 1 <= count <= graph.degree(node)

    # Designations recorded for exactly the forwarders.
    assert set(outcome.designations) == outcome.forward_nodes
