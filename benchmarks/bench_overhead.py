"""Packet-size overhead: the TDP versus PDP trade, measured.

The paper (Section 6.3): "PDP avoids the extra cost in TDP introduced by
piggybacking 2-hop information with the broadcast packet, but achieves
almost the same performance improvement."  With abstract packet sizes
(one unit per carried node id) we can check both halves: TDP's forward
counts are no better than PDP's by much, while its transmitted volume is
far larger.
"""

import random
import statistics

from conftest import write_result

from repro.algorithms.dominant_pruning import (
    DominantPruning,
    PartialDominantPruning,
    TotalDominantPruning,
)
from repro.core.priority import DegreePriority
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment, run_broadcast

TRIALS = 20
N = 50
DEGREE = 10.0


def _measure(protocol_cls):
    rng = random.Random(31)
    forwards, volume = [], []
    for trial in range(TRIALS):
        net = random_connected_network(N, DEGREE, rng)
        env = SimulationEnvironment(net.topology, DegreePriority())
        protocol = protocol_cls()
        protocol.prepare(env)
        outcome = run_broadcast(
            env.graph, protocol, rng.choice(net.topology.nodes()),
            rng=random.Random(trial), env=env,
        )
        assert outcome.delivered == set(net.topology.nodes())
        forwards.append(outcome.forward_count)
        volume.append(outcome.bytes_transmitted)
    return statistics.mean(forwards), statistics.mean(volume)


def test_tdp_pays_in_packet_size(benchmark):
    def sweep():
        return {
            "DP": _measure(DominantPruning),
            "TDP": _measure(TotalDominantPruning),
            "PDP": _measure(PartialDominantPruning),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"forwards vs transmitted volume (n={N}, d={DEGREE:g})"]
    lines += [
        f"  {name:4s}: {fwd:6.2f} forwards, {vol:8.1f} size units"
        for name, (fwd, vol) in results.items()
    ]
    write_result("overhead", "\n".join(lines))

    dp_fwd, dp_vol = results["DP"]
    tdp_fwd, tdp_vol = results["TDP"]
    pdp_fwd, pdp_vol = results["PDP"]
    # Both refinements beat DP on forwards.
    assert tdp_fwd <= dp_fwd * 1.02
    assert pdp_fwd <= dp_fwd * 1.02
    # PDP achieves almost TDP's improvement ...
    assert pdp_fwd <= tdp_fwd * 1.15
    # ... without TDP's piggybacking cost (per-unit volume much lower).
    assert tdp_vol > pdp_vol * 1.5
    assert abs(pdp_vol - dp_vol) <= dp_vol * 0.25
