"""Per-node energy accounting and energy-aware priorities.

Span — one of the paper's special cases — exists to extend network
*lifetime*: its original backoff priority is computed from residual
energy so that depleted nodes shed coordinator duty.  The paper strips
the energy term for a fair forward-count comparison; this module puts it
back as a first-class substrate:

* :class:`EnergyTracker` charges transmission and reception costs from
  broadcast outcomes and tracks per-node residual energy;
* :class:`EnergyAwarePriority` turns a residual-energy snapshot into a
  priority scheme (more energy = higher priority = more forward duty),
  which is safe because any fixed total order satisfies the coverage
  theorems;
* :func:`network_lifetime` runs broadcasts until the first node dies,
  the canonical lifetime metric.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set

from ..algorithms.base import BroadcastProtocol
from ..core.priority import PriorityScheme
from ..graph.topology import Topology
from .engine import BroadcastOutcome, SimulationEnvironment, run_broadcast

__all__ = [
    "EnergyTracker",
    "EnergyAwarePriority",
    "LifetimeResult",
    "lifetime_seed",
    "network_lifetime",
]

#: Monotone sequence distinguishing same-process default-seeded runs.
_LIFETIME_SEQUENCE = itertools.count()


def lifetime_seed(sequence: int) -> int:
    """The documented default-RNG seed of one :func:`network_lifetime`.

    ``sha256("network_lifetime|{sequence}")`` truncated to 64 bits —
    the same derivation as :func:`repro.sim.service.service_seed`, under
    a lifetime-specific tag so source selection never correlates with
    engine backoff streams.  A shared fixed default (the old
    ``Random(0)``) made every default-seeded lifetime run in a process
    pick the identical source sequence; pass an explicit ``rng`` for
    cross-process reproducibility.
    """
    digest = hashlib.sha256(f"network_lifetime|{sequence}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class EnergyTracker:
    """Residual energy per node, charged from broadcast outcomes.

    Costs follow the standard radio model shape: transmitting is the
    expensive operation, receiving cheaper by a constant factor.
    """

    def __init__(
        self,
        nodes: Iterable[int],
        initial: float = 100.0,
        transmit_cost: float = 1.0,
        receive_cost: float = 0.2,
    ) -> None:
        if initial <= 0:
            raise ValueError(f"initial energy must be positive, got {initial}")
        if transmit_cost < 0 or receive_cost < 0:
            raise ValueError("costs must be non-negative")
        self.transmit_cost = transmit_cost
        self.receive_cost = receive_cost
        self._remaining: Dict[int, float] = {
            node: float(initial) for node in nodes
        }
        if not self._remaining:
            raise ValueError("tracker needs at least one node")

    def remaining(self, node: int) -> float:
        """Residual energy of ``node`` (never below zero)."""
        try:
            return max(0.0, self._remaining[node])
        except KeyError as exc:
            raise KeyError(f"node {node} not tracked") from exc

    def snapshot(self) -> Dict[int, float]:
        """Residual energy of every node."""
        return {node: self.remaining(node) for node in self._remaining}

    def charge_outcome(self, outcome: BroadcastOutcome) -> None:
        """Debit one broadcast: transmissions and receptions."""
        for node in outcome.forward_nodes:
            self._remaining[node] -= self.transmit_cost
        for node, count in outcome.receipt_counts.items():
            self._remaining[node] -= count * self.receive_cost

    def alive(self) -> Set[int]:
        """Nodes with strictly positive residual energy."""
        return {
            node for node, value in self._remaining.items() if value > 0
        }

    def depleted(self) -> Set[int]:
        """Nodes at or below zero."""
        return set(self._remaining) - self.alive()

    def min_remaining(self) -> float:
        """The weakest node's residual energy."""
        return min(self.remaining(node) for node in self._remaining)


class EnergyAwarePriority(PriorityScheme):
    """Residual energy as the priority metric (Span's ingredient).

    Nodes advertise their remaining energy in hellos; higher residual
    energy means higher priority, so well-charged nodes absorb forward
    duty and depleted ones prune themselves whenever coverage allows.
    The snapshot is fixed per scheme instance (one epoch), keeping the
    order total and the coverage guarantees intact.
    """

    name = "energy"
    arity = 1
    extra_rounds = 1

    def __init__(self, snapshot: Dict[int, float]) -> None:
        if not snapshot:
            raise ValueError("energy snapshot is empty")
        self._snapshot = dict(snapshot)

    def metrics(self, graph: Topology) -> Dict[int, tuple]:
        return {
            node: (self._snapshot.get(node, 0.0),)
            for node in graph.nodes()
        }


@dataclass
class LifetimeResult:
    """Outcome of a :func:`network_lifetime` run."""

    #: Broadcasts completed before the first node died (or the cap).
    broadcasts: int
    #: Whether some node actually depleted (False = hit the cap).
    node_died: bool
    #: Residual energy at the end.
    final_energy: Dict[int, float]

    def survivors(self) -> int:
        """Nodes still holding positive residual energy."""
        return sum(1 for value in self.final_energy.values() if value > 0)


def network_lifetime(
    graph: Topology,
    protocol_factory: Callable[[], BroadcastProtocol],
    tracker: EnergyTracker,
    scheme_factory: Optional[
        Callable[[EnergyTracker], PriorityScheme]
    ] = None,
    rng: Optional[random.Random] = None,
    max_broadcasts: int = 10_000,
) -> LifetimeResult:
    """Broadcast from random sources until the first node dies.

    ``scheme_factory(tracker)`` is consulted before every broadcast, so
    an energy-aware scheme keeps following the residual-energy state; a
    ``None`` factory uses the environment's default (id priority).
    """
    rng = rng or random.Random(lifetime_seed(next(_LIFETIME_SEQUENCE)))
    base_env = SimulationEnvironment(graph)
    count = 0
    while count < max_broadcasts:
        env = base_env
        if scheme_factory is not None:
            env = base_env.with_scheme(scheme_factory(tracker))
        protocol = protocol_factory()
        protocol.prepare(env)
        source = rng.choice(graph.nodes())
        outcome = run_broadcast(
            graph, protocol, source,
            rng=random.Random(rng.getrandbits(32)), env=env,
        )
        tracker.charge_outcome(outcome)
        count += 1
        if tracker.depleted():
            return LifetimeResult(
                broadcasts=count,
                node_died=True,
                final_energy=tracker.snapshot(),
            )
    return LifetimeResult(
        broadcasts=count,
        node_died=False,
        final_energy=tracker.snapshot(),
    )
