"""Reliability ablation: redundancy versus collisions versus jitter.

The paper's evaluation assumes a collision-free MAC and argues (citing
the authors' follow-up measurements) that "packet collision can be
relieved with a small forwarding jitter delay".  This benchmark checks
that claim inside our collision MAC: with zero jitter a dense flood
collapses; a modest jitter restores deliverability; and a pruned forward
set causes far fewer collisions than flooding in the first place.
"""

import random
import statistics

from conftest import write_result

from repro.algorithms.base import Timing
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.core.priority import IdPriority
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.sim.mac import CollisionMac

TRIALS = 15
N = 40
DEGREE = 10.0


def _delivery(protocol_factory, jitter: float) -> tuple:
    rng = random.Random(29)
    ratios, collisions = [], []
    for trial in range(TRIALS):
        net = random_connected_network(N, DEGREE, rng)
        env = SimulationEnvironment(net.topology, IdPriority())
        protocol = protocol_factory()
        protocol.prepare(env)
        mac = CollisionMac(delay=1.0, jitter=jitter, window=0.25)
        outcome = run_broadcast(
            env.graph, protocol, 0, rng=random.Random(trial), mac=mac, env=env,
        )
        ratios.append(len(outcome.delivered) / N)
        collisions.append(mac.collisions)
    return statistics.mean(ratios), statistics.mean(collisions)


def test_jitter_restores_flooding_delivery(benchmark):
    def sweep():
        return {
            jitter: _delivery(Flooding, jitter)
            for jitter in (0.0, 1.0, 4.0, 8.0)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["flooding under a collision MAC (n=40, d=10)"]
    lines += [
        f"  jitter={j:g}: delivery {d:.1%}, {c:.1f} collisions"
        for j, (d, c) in results.items()
    ]
    write_result("reliability_jitter", "\n".join(lines))
    no_jitter = results[0.0][0]
    with_jitter = results[8.0][0]
    assert no_jitter < 0.9  # the storm actually bites
    assert with_jitter > 0.95  # and jitter relieves it
    assert with_jitter > no_jitter


def test_pruning_reduces_collisions(benchmark):
    def compare():
        flood = _delivery(Flooding, jitter=1.0)
        pruned = _delivery(
            lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2),
            jitter=1.0,
        )
        return {"flooding": flood, "generic-fr": pruned}

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    write_result(
        "reliability_pruning",
        "collision MAC, jitter=1 (n=40, d=10)\n"
        + "\n".join(
            f"  {name}: delivery {d:.1%}, {c:.1f} collisions"
            for name, (d, c) in results.items()
        ),
    )
    # Pruning cuts the number of transmissions, hence collisions.
    assert results["generic-fr"][1] < results["flooding"][1]
