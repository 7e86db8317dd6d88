"""Multi-broadcast workloads: load, fairness, and aggregate cost.

A single forward-node count tells only part of the story once a network
carries *streams* of broadcasts.  The static approach reuses one CDS for
every broadcast — cheap to maintain, but the same backbone nodes burn
energy on every packet (the fairness concern that motivated Span's
coordinator rotation).  Dynamic approaches recompute per broadcast, so
the forward duty moves around with the source.

:class:`BroadcastWorkload` runs a stream of broadcasts from random
sources over one deployment and aggregates per-node forwarding load,
Jain's fairness index over that load, total transmissions, and latency.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..algorithms.base import BroadcastProtocol
from ..graph.topology import Topology
from ..metrics.stats import jain_fairness_index, mean, percentile
from ..sim.engine import SimulationEnvironment, run_broadcast

__all__ = ["WorkloadResult", "BroadcastWorkload", "workload_seed"]

#: Monotone sequence distinguishing same-process default-seeded runs.
_RUN_SEQUENCE = itertools.count()


def workload_seed(sequence: int) -> int:
    """The documented default-RNG seed of one :meth:`BroadcastWorkload.run`.

    ``sha256("BroadcastWorkload|{sequence}")`` truncated to 64 bits —
    the same derivation :func:`repro.sim.service.service_seed` uses,
    under a workload-specific tag so workload source draws never correlate with engine backoff
    streams.  A shared fixed default (the old ``Random(0)``) replayed the
    identical source sequence for every run in a process, silently
    correlating "independent" workloads; pass an explicit ``rng`` for
    cross-process reproducibility.
    """
    digest = hashlib.sha256(f"BroadcastWorkload|{sequence}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class WorkloadResult:
    """Aggregates over one workload run."""

    broadcasts: int
    #: Forwarding load per node: how many broadcasts it forwarded.
    load: Dict[int, int]
    #: Total transmissions across the stream.
    total_transmissions: int
    #: Per-broadcast completion times.
    latencies: List[float] = field(default_factory=list)

    def fairness(self) -> float:
        """Jain's index over the per-node forwarding load."""
        return jain_fairness_index(list(self.load.values()))

    def mean_latency(self) -> float:
        """Average broadcast completion time."""
        return mean(self.latencies)

    def latency_p95(self) -> float:
        """95th-percentile broadcast completion time (tail SLO)."""
        return percentile(self.latencies, 95.0)

    def latency_p99(self) -> float:
        """99th-percentile broadcast completion time (tail SLO)."""
        return percentile(self.latencies, 99.0)

    def max_load(self) -> int:
        """The busiest node's forward count (battery bottleneck)."""
        return max(self.load.values())

    def summary(self) -> Dict[str, float]:
        """Headline aggregates, including the tail-latency percentiles."""
        return {
            "broadcasts": float(self.broadcasts),
            "total_transmissions": float(self.total_transmissions),
            "fairness": self.fairness(),
            "max_load": float(self.max_load()),
            "mean_latency": self.mean_latency(),
            "latency_p95": self.latency_p95(),
            "latency_p99": self.latency_p99(),
        }


class BroadcastWorkload:
    """A stream of broadcasts from random sources over one deployment.

    Parameters
    ----------
    graph:
        The deployment.
    protocol_factory:
        Builds a fresh protocol per broadcast (dynamic protocols keep no
        cross-broadcast state; static ones recompute the same sets, so a
        factory models both honestly).
    env:
        Optional pre-built environment (to share view caches).
    """

    def __init__(
        self,
        graph: Topology,
        protocol_factory: Callable[[], BroadcastProtocol],
        env: Optional[SimulationEnvironment] = None,
    ) -> None:
        self.graph = graph
        self.protocol_factory = protocol_factory
        self.env = env or SimulationEnvironment(graph)

    def run(
        self,
        broadcasts: int,
        rng: Optional[random.Random] = None,
        require_coverage: bool = True,
        scheme_factory=None,
    ) -> WorkloadResult:
        """Run ``broadcasts`` sessions from uniformly random sources.

        ``scheme_factory(epoch) -> PriorityScheme`` switches the priority
        scheme per broadcast (e.g. ``RandomEpochPriority(epoch)``), which
        rotates the forward duty across nodes for energy fairness.
        """
        if broadcasts < 1:
            raise ValueError(f"broadcasts must be positive, got {broadcasts}")
        rng = rng or random.Random(workload_seed(next(_RUN_SEQUENCE)))
        load: Dict[int, int] = {node: 0 for node in self.graph.nodes()}
        total = 0
        latencies: List[float] = []
        protocol = self.protocol_factory()
        protocol.prepare(self.env)
        for index in range(broadcasts):
            source = rng.choice(self.graph.nodes())
            env = self.env
            if scheme_factory is not None:
                env = self.env.with_scheme(scheme_factory(index))
                protocol = self.protocol_factory()
                protocol.prepare(env)
            outcome = run_broadcast(
                self.graph,
                protocol,
                source,
                rng=random.Random(rng.getrandbits(32)),
                env=env,
            )
            if require_coverage and len(outcome.delivered) != self.graph.node_count():
                raise AssertionError(
                    f"broadcast {index} from {source} failed coverage"
                )
            for node in outcome.forward_nodes:
                load[node] += 1
            total += outcome.transmissions
            latencies.append(outcome.completion_time)
        return WorkloadResult(
            broadcasts=broadcasts,
            load=load,
            total_transmissions=total,
            latencies=latencies,
        )
