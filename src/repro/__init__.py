"""repro — a full reproduction of Wu & Dai's generic distributed broadcast
scheme for ad hoc wireless networks (ICDCS 2003).

The library has five layers:

* :mod:`repro.graph` — unit-disk network substrate, CDS toolkit, mobility;
* :mod:`repro.core` — views, priorities, and the coverage conditions (the
  paper's contribution);
* :mod:`repro.sim` — discrete-event broadcast engine, MAC models, hello
  protocol;
* :mod:`repro.algorithms` — the generic framework instances and every
  special case (Wu & Li, Rule-k, Span, MPR, SBA, Stojmenovic, LENWB,
  DP/TDP/PDP, hybrids);
* :mod:`repro.experiments` — per-figure reproduction harness.

Quickstart::

    import random
    from repro import (FrameworkConfig, build_protocol, build_scheme,
                       random_connected_network, run_broadcast)

    rng = random.Random(7)
    network = random_connected_network(50, 6.0, rng)
    config = FrameworkConfig(timing="fr", selection="self-pruning",
                             hops=2, priority="degree")
    outcome = run_broadcast(network.topology, build_protocol(config),
                            source=0, scheme=build_scheme(config), rng=rng)
    print(outcome.forward_count, "forward nodes,",
          len(outcome.delivered), "nodes covered")
"""

from .core.coverage import (
    coverage_condition,
    span_condition,
    strong_coverage_condition,
)
from .core.framework import FrameworkConfig, build_protocol, build_scheme
from .core.maxmin import max_min_node, max_min_path
from .core.priority import (
    DegreePriority,
    IdPriority,
    NcrPriority,
    PriorityScheme,
    scheme_by_name,
)
from .core.views import View, global_view, local_view, super_view
from .graph.generators import (
    grid_network,
    random_connected_network,
    random_network,
)
from .graph.cds import greedy_cds, is_cds, is_dominating_set
from .graph.topology import Topology
from .graph.unit_disk import UnitDiskGraph, build_unit_disk_graph
from .instrument import InstrumentationCounters, collecting
from .sim.engine import (
    BroadcastOutcome,
    SimulationEnvironment,
    run_broadcast,
)
from .sim.service import (
    MessageOutcome,
    MessageState,
    ServiceEngine,
    ServiceOutcome,
    service_seed,
)
from .sim.traffic import (
    BurstyTraffic,
    Message,
    PoissonTraffic,
    ScriptedTraffic,
    SingleShot,
    TrafficModel,
    ZipfTraffic,
    traffic_seed,
)
from .sim.events import (
    EventBus,
    RecordingBus,
    SimEvent,
    events_from_jsonl,
    events_to_jsonl,
)
from .algorithms import REGISTRY, Timing, create

__version__ = "1.0.0"

__all__ = [
    "coverage_condition",
    "span_condition",
    "strong_coverage_condition",
    "FrameworkConfig",
    "build_protocol",
    "build_scheme",
    "max_min_node",
    "max_min_path",
    "DegreePriority",
    "IdPriority",
    "NcrPriority",
    "PriorityScheme",
    "scheme_by_name",
    "View",
    "global_view",
    "local_view",
    "super_view",
    "grid_network",
    "random_connected_network",
    "random_network",
    "greedy_cds",
    "is_cds",
    "is_dominating_set",
    "Topology",
    "UnitDiskGraph",
    "build_unit_disk_graph",
    "BroadcastOutcome",
    "MessageState",
    "SimulationEnvironment",
    "run_broadcast",
    "MessageOutcome",
    "ServiceEngine",
    "ServiceOutcome",
    "service_seed",
    "BurstyTraffic",
    "Message",
    "PoissonTraffic",
    "ScriptedTraffic",
    "SingleShot",
    "TrafficModel",
    "ZipfTraffic",
    "traffic_seed",
    "InstrumentationCounters",
    "collecting",
    "EventBus",
    "RecordingBus",
    "SimEvent",
    "events_to_jsonl",
    "events_from_jsonl",
    "REGISTRY",
    "Timing",
    "create",
    "__version__",
]
