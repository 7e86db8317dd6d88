"""Probabilistic versus deterministic broadcasting.

The paper's introduction dismisses the probabilistic approach in two
sentences: gossip "cannot guarantee full coverage", and making it
reliable requires a conservative p that "yields a relatively large
forward node set."  This example measures both halves of the claim: for
a sweep of gossip probabilities it reports delivery ratio and forward
count, next to the deterministic coverage-condition protocol which
guarantees delivery by construction.

Run:  python examples/gossip_vs_deterministic.py
"""

import random
import statistics

from repro.algorithms.base import Timing
from repro.algorithms.generic import GenericSelfPruning
from repro.algorithms.gossip import Gossip
from repro.core.priority import IdPriority
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment, run_broadcast

TRIALS = 25
N = 50
DEGREE = 6.0


def measure(protocol_factory) -> tuple:
    rng = random.Random(2003)
    delivery, forwards = [], []
    for trial in range(TRIALS):
        net = random_connected_network(N, DEGREE, rng)
        env = SimulationEnvironment(net.topology, IdPriority())
        protocol = protocol_factory()
        protocol.prepare(env)
        outcome = run_broadcast(
            env.graph, protocol, rng.choice(net.topology.nodes()),
            rng=random.Random(trial), env=env,
        )
        delivery.append(len(outcome.delivered) / N)
        forwards.append(outcome.forward_count)
    return statistics.mean(delivery), statistics.mean(forwards)


def main() -> None:
    print(f"{TRIALS} random networks, n={N}, d={DEGREE:g}\n")
    print(f"{'protocol':24s} {'delivery':>9s} {'forwards':>9s}")
    print("-" * 44)
    for p in (0.3, 0.5, 0.7, 0.9):
        delivery, forwards = measure(lambda p=p: Gossip(p=p))
        print(f"{f'gossip p={p:g}':24s} {delivery:9.1%} {forwards:9.1f}")
    delivery, forwards = measure(
        lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
    )
    print(f"{'generic coverage (FR)':24s} {delivery:9.1%} {forwards:9.1f}")
    print(
        "\nthe deterministic framework delivers 100% with fewer forwards "
        "than any gossip setting that comes close"
    )


if __name__ == "__main__":
    main()
