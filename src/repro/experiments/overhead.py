"""Control overhead: the total-cost model behind "cost-effectiveness".

Section 7 repeatedly weighs forward-node savings against the cost of the
information they need: "considering the cost in gathering neighborhood
information, algorithms based on 4-, 5-hop, or global information are not
cost-effective compared with the ones based on 2- or 3-hop information",
and NCR "has the highest maintenance cost".  This module makes the trade
explicit with the natural message-count model:

* each hello period, every node beacons once per exchange round; k-hop
  topology needs ``k`` rounds and the priority scheme adds its
  ``extra_rounds`` (Definition 2 and Section 4.4's cost accounting);
* each broadcast costs its forward-node transmissions.

Over one hello period carrying ``B`` broadcasts, the total message count
is ``n * (k + extra_rounds) + B * forwards(k, scheme)``.  Few broadcasts
per period favour cheap views; many favour expensive, well-pruned ones —
the crossover is the quantity the paper argues about qualitatively.

:func:`measure_overhead_instrumented` closes the loop on the analytical
model: it runs the trials with instrumentation counters on and
*simulates* the hello rounds message by message, so the table the report
module renders puts measured hello beacons and measured transmissions
next to the model's ``n * (k + extra_rounds)`` and mean-forward terms.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..algorithms.base import Timing
from ..algorithms.generic import GenericSelfPruning
from ..core.priority import scheme_by_name
from ..graph.generators import random_connected_network
from ..instrument import collecting
from ..sim.engine import SimulationEnvironment, run_broadcast
from ..sim.hello import run_hello_rounds

__all__ = [
    "OverheadPoint",
    "MeasuredOverhead",
    "measure_overhead",
    "measure_overhead_instrumented",
    "total_cost",
    "crossover_broadcasts",
]


@dataclass(frozen=True)
class OverheadPoint:
    """One configuration's measured cost ingredients."""

    hops: int
    scheme_name: str
    #: Hello rounds per period: k for topology + the scheme's extra.
    hello_rounds: int
    #: Mean forward nodes per broadcast.
    mean_forwards: float
    #: Deployment size (hello messages per round = n).
    n: int

    def total_cost(self, broadcasts_per_period: float) -> float:
        """Messages per hello period at the given broadcast rate."""
        hello = self.n * self.hello_rounds
        return hello + broadcasts_per_period * self.mean_forwards


def measure_overhead(
    hops: int,
    scheme_name: str,
    n: int = 60,
    degree: float = 6.0,
    trials: int = 15,
    seed: int = 97,
) -> OverheadPoint:
    """Measure one (k, scheme) configuration's cost ingredients (the
    ``point`` of :func:`measure_overhead_instrumented`)."""
    return measure_overhead_instrumented(
        hops, scheme_name, n=n, degree=degree, trials=trials, seed=seed
    ).point


@dataclass(frozen=True)
class MeasuredOverhead:
    """One configuration's analytical cost model next to simulated counts.

    ``point`` carries the analytical ingredients; the measured fields come
    from instrumentation counters over the same trials — hello rounds are
    actually simulated beacon by beacon and broadcast transmissions are
    counted as emitted, so any disagreement with the model is a bug in
    one of them.
    """

    point: OverheadPoint
    #: Trials the measured totals aggregate over.
    trials: int
    #: Hello beacons actually simulated across all trials.
    measured_hello_messages: int
    #: The model's hello term for the same trials:
    #: ``trials * n * (k + extra_rounds)``.
    analytical_hello_messages: int
    #: Mean broadcast transmissions per trial, from counters.
    measured_transmissions: float
    #: The full merged counter payload for the configuration.
    counters: Dict[str, int]

    @property
    def hello_matches(self) -> bool:
        """Whether simulated hello beacons equal the analytical term."""
        return self.measured_hello_messages == self.analytical_hello_messages


def measure_overhead_instrumented(
    hops: int,
    scheme_name: str,
    n: int = 60,
    degree: float = 6.0,
    trials: int = 15,
    seed: int = 97,
) -> MeasuredOverhead:
    """Measure one (k, scheme) configuration with counters on.

    Simulates ``trials`` random deployments, each with one hello
    period of ``k + extra_rounds`` beacon rounds and one broadcast from
    a random source, all inside a :func:`repro.instrument.collecting`
    scope.  The hello rounds draw no randomness, so ``point`` depends
    only on the deployments, sources and broadcasts.
    """
    scheme = scheme_by_name(scheme_name)
    rng = random.Random(seed)
    forwards: List[float] = []
    with collecting() as counters:
        for trial in range(trials):
            net = random_connected_network(n, degree, rng)
            run_hello_rounds(net.topology, hops + scheme.extra_rounds)
            env = SimulationEnvironment(net.topology, scheme)
            protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=hops)
            protocol.prepare(env)
            outcome = run_broadcast(
                net.topology, protocol, rng.choice(net.topology.nodes()),
                rng=random.Random(trial), env=env,
            )
            if len(outcome.delivered) != n:
                raise AssertionError("broadcast failed coverage")
            forwards.append(outcome.forward_count)
    point = OverheadPoint(
        hops=hops,
        scheme_name=scheme_name,
        hello_rounds=hops + scheme.extra_rounds,
        mean_forwards=statistics.mean(forwards),
        n=n,
    )
    return MeasuredOverhead(
        point=point,
        trials=trials,
        measured_hello_messages=counters.hello_messages,
        analytical_hello_messages=trials * n * point.hello_rounds,
        measured_transmissions=counters.transmissions / trials,
        counters=counters.as_dict(),
    )


def total_cost(point: OverheadPoint, broadcasts_per_period: float) -> float:
    """Convenience alias for :meth:`OverheadPoint.total_cost`."""
    return point.total_cost(broadcasts_per_period)


def crossover_broadcasts(
    cheap: OverheadPoint, rich: OverheadPoint
) -> Optional[float]:
    """Broadcast rate at which the richer configuration starts to pay off.

    Solves ``cheap.total_cost(B) == rich.total_cost(B)``; ``None`` when
    the richer configuration never catches up (it must save forwards to
    amortise its extra hello rounds).
    """
    hello_gap = (rich.n * rich.hello_rounds) - (cheap.n * cheap.hello_rounds)
    savings = cheap.mean_forwards - rich.mean_forwards
    if savings <= 0:
        return None
    if hello_gap <= 0:
        return 0.0
    return hello_gap / savings
