"""Latency ablation: the cost of backoff delays.

Section 4.1: the backoff "is done at the cost of prolonging the
completion time of the broadcast process", which is why the paper
recommends FR for "highly delay-sensitive applications" and FRBD
otherwise.  This benchmark measures the end-to-end completion times the
figures never show, alongside the forward counts they do.
"""

import random
import statistics

from conftest import write_result

from repro.algorithms.base import Timing
from repro.algorithms.generic import GenericSelfPruning, GenericStatic
from repro.core.priority import IdPriority
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment, run_broadcast

TRIALS = 20
N = 60


def _measure(protocol_factory):
    rng = random.Random(77)
    latencies, forwards = [], []
    for trial in range(TRIALS):
        net = random_connected_network(N, 6.0, rng)
        env = SimulationEnvironment(net.topology, IdPriority())
        protocol = protocol_factory()
        protocol.prepare(env)
        outcome = run_broadcast(
            env.graph, protocol, rng.choice(net.topology.nodes()),
            rng=random.Random(trial), env=env,
        )
        assert outcome.delivered == set(net.topology.nodes())
        latencies.append(outcome.completion_time)
        forwards.append(outcome.forward_count)
    return statistics.mean(latencies), statistics.mean(forwards)


def test_backoff_prolongs_completion(benchmark):
    def sweep():
        return {
            "Static": _measure(lambda: GenericStatic(hops=2)),
            "FR": _measure(
                lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
            ),
            "FRB": _measure(
                lambda: GenericSelfPruning(
                    Timing.FIRST_RECEIPT_BACKOFF, hops=2
                )
            ),
            "FRBD": _measure(
                lambda: GenericSelfPruning(
                    Timing.FIRST_RECEIPT_BACKOFF_DEGREE, hops=2
                )
            ),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"completion time vs forward count (n={N}, d=6)"]
    lines += [
        f"  {name:7s}: latency {latency:6.2f}, forwards {fwd:5.2f}"
        for name, (latency, fwd) in results.items()
    ]
    write_result("latency", "\n".join(lines))

    # No extra end-to-end delay for static and FR (paper Section 4.1) —
    # both complete in O(eccentricity) MAC delays.
    assert results["FR"][0] <= results["Static"][0] * 1.3
    # Backoff timings pay real latency ...
    assert results["FRB"][0] > results["FR"][0] * 1.5
    assert results["FRBD"][0] > results["FR"][0]
    # ... to buy smaller forward sets.
    assert results["FRB"][1] <= results["FR"][1]
