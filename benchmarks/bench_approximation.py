"""CDS approximation quality against exact minima.

The paper's introduction concedes that the coverage condition "does not
guarantee a constant approximation ratio in the worst case" but argues —
citing Guha & Khuller — that greedy/local schemes beat constant-ratio
constructions on random networks in practice.  This benchmark measures
the actual ratios on small random deployments where the minimum CDS is
computable by exhaustive search.
"""

import random
import statistics

from conftest import write_result

from repro.algorithms.base import Timing
from repro.algorithms.generic import GenericSelfPruning, GenericStatic
from repro.core.priority import IdPriority
from repro.graph.cds import greedy_cds, minimum_cds_bruteforce
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment, run_broadcast

TRIALS = 12
N = 10
DEGREE = 4.0


def test_approximation_ratios(benchmark):
    def sweep():
        rng = random.Random(47)
        ratios = {"generic-static": [], "generic-fr": [], "greedy-cds": []}
        for trial in range(TRIALS):
            net = random_connected_network(N, DEGREE, rng)
            optimal = minimum_cds_bruteforce(net.topology)
            assert optimal is not None
            best = max(1, len(optimal))

            env = SimulationEnvironment(net.topology, IdPriority())
            static = GenericStatic(hops=2)
            static.prepare(env)
            ratios["generic-static"].append(
                max(1, len(static.forward_set)) / best
            )

            dynamic = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
            dynamic.prepare(env)
            outcome = run_broadcast(
                env.graph, dynamic, rng.choice(net.topology.nodes()),
                rng=random.Random(trial), env=env,
            )
            ratios["generic-fr"].append(outcome.forward_count / best)

            ratios["greedy-cds"].append(
                max(1, len(greedy_cds(net.topology))) / best
            )
        return {
            name: statistics.mean(values) for name, values in ratios.items()
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_result(
        "approximation",
        f"mean ratio to the optimal CDS (n={N}, d={DEGREE:g})\n"
        + "\n".join(
            f"  {name}: {ratio:.2f}x" for name, ratio in results.items()
        ),
    )
    # Local pruning stays within a small constant of optimal on random
    # deployments, as the paper argues (no worst-case guarantee implied).
    for name, ratio in results.items():
        assert 1.0 <= ratio <= 3.0, (name, ratio)
