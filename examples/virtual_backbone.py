"""Virtual backbone: a stable CDS for both broadcasting and unicasting.

The paper motivates the *static* approach with exactly this use case: "the
static approach produces a relatively stable CDS that forms a virtual
backbone, which facilitates both broadcasting and unicasting."  This
example:

1. computes a proactive forward set (the backbone) with the static generic
   protocol,
2. broadcasts over it from several sources — the same backbone serves all
   of them,
3. routes unicast messages along the backbone (enter at the source's
   backbone neighbor, travel inside the backbone, exit at the target),
4. shows the clustering escape hatch for dense deployments.

Run:  python examples/virtual_backbone.py
"""

import random
from typing import List, Optional

from repro import SimulationEnvironment, is_cds, run_broadcast
from repro.algorithms.generic import GenericStatic
from repro.core.priority import DegreePriority
from repro.graph.clustering import cluster_backbone, lowest_id_clustering
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology


def backbone_route(
    graph: Topology, backbone: frozenset, source: int, target: int
) -> Optional[List[int]]:
    """A source → target route whose interior runs inside the backbone."""
    if target in graph.neighbors(source) or source == target:
        return [source, target]
    allowed = set(backbone) | {source, target}
    route = graph.subgraph(allowed).shortest_path(source, target)
    return route


def main() -> None:
    rng = random.Random(11)
    network = random_connected_network(60, 6.0, rng)
    graph = network.topology

    # --- 1. the proactive backbone -----------------------------------
    env = SimulationEnvironment(graph, DegreePriority())
    protocol = GenericStatic(hops=2)
    protocol.prepare(env)
    backbone = protocol.forward_set
    print(
        f"backbone: {len(backbone)} of {graph.node_count()} nodes "
        f"(CDS: {is_cds(graph, backbone)})"
    )

    # --- 2. one backbone, many broadcasts ----------------------------
    print("\nbroadcasts from five different sources over the same backbone:")
    for source in rng.sample(graph.nodes(), 5):
        outcome = run_broadcast(env.graph, protocol, source, rng=rng, env=env)
        assert outcome.delivered == set(graph.nodes())
        print(
            f"  source {source:3d}: {outcome.forward_count:2d} forwards, "
            f"covered all {len(outcome.delivered)} nodes"
        )

    # --- 3. unicast along the backbone -------------------------------
    print("\nunicast routes through the backbone:")
    for _ in range(5):
        source, target = rng.sample(graph.nodes(), 2)
        route = backbone_route(graph, backbone, source, target)
        direct = graph.shortest_path(source, target)
        assert route is not None, "backbone must connect every pair"
        print(
            f"  {source:3d} -> {target:3d}: backbone route {route} "
            f"({len(route) - 1} hops vs {len(direct) - 1} optimal)"
        )

    # --- 4. dense network? cluster first -----------------------------
    dense = random_connected_network(60, 20.0, rng)
    clustering = lowest_id_clustering(dense.topology)
    sparse_backbone = cluster_backbone(dense.topology, clustering)
    print(
        f"\ndense deployment (avg degree {dense.average_degree():.0f}): "
        f"{len(clustering.heads)} clusterheads + "
        f"{len(clustering.gateways)} gateways -> backbone of "
        f"{sparse_backbone.node_count()} nodes with average degree "
        f"{sparse_backbone.average_degree():.1f}"
    )


if __name__ == "__main__":
    main()
