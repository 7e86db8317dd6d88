"""Broadcast under mobility and under MAC collisions.

The paper evaluates static, collision-free networks and argues the two
omissions away by citing follow-up results: moderate mobility is absorbed
by a little extra redundancy, and collisions are relieved by a small
forwarding jitter.  This example reproduces both claims with the
library's mobility model and collision MAC:

1. a random-waypoint walk emits topology snapshots; broadcasting on a
   *stale* forward-set decision (computed one snapshot earlier) shows how
   delivery degrades with speed, and how the redundancy of flooding
   absorbs it;
2. the collision MAC shows delivery collapsing under zero jitter and
   recovering as jitter grows.

Run:  python examples/mobility_broadcast.py
"""

import random

from repro.algorithms.base import Timing
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericStatic
from repro.core.priority import IdPriority
from repro.graph.geometry import Area, random_points
from repro.graph.mobility import RandomWaypointModel
from repro.graph.unit_disk import range_for_average_degree
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.sim.mac import CollisionMac


def stale_backbone_delivery(max_speed: float, trials: int = 10) -> tuple:
    """Delivery when forwarding decisions lag one snapshot behind."""
    rng = random.Random(int(max_speed * 100) + 7)
    delivered_pruned, delivered_flood = [], []
    for _ in range(trials):
        positions = random_points(50, Area(), rng)
        radius, _links = range_for_average_degree(positions, 8.0)
        model = RandomWaypointModel(
            positions, radius, rng,
            min_speed=max(0.01, max_speed / 2), max_speed=max(0.02, max_speed),
        )
        before = model.snapshot()
        if not before.topology.is_connected():
            continue
        # Decide the forward set on the old topology ...
        env_before = SimulationEnvironment(before.topology, IdPriority())
        protocol = GenericStatic(hops=2)
        protocol.prepare(env_before)
        stale_forward = protocol.forward_set
        # ... then the nodes move and the broadcast runs on the new one.
        model.advance(2.0)
        after = model.snapshot()
        if not after.topology.is_connected():
            continue
        env_after = SimulationEnvironment(after.topology, IdPriority())
        replay = GenericStatic(hops=2)
        replay.prepare(env_after)
        replay._forward_set = set(stale_forward)  # inject the stale set
        outcome = run_broadcast(
            env_after.graph, replay, source=0, rng=rng, env=env_after,
        )
        delivered_pruned.append(len(outcome.delivered) / 50)
        flood = run_broadcast(
            env_after.graph, Flooding(), source=0, rng=rng, env=env_after,
        )
        delivered_flood.append(len(flood.delivered) / 50)
    if not delivered_pruned:
        return float("nan"), float("nan")
    return (
        sum(delivered_pruned) / len(delivered_pruned),
        sum(delivered_flood) / len(delivered_flood),
    )


def collision_recovery() -> None:
    print("\nMAC collisions vs forwarding jitter (flooding, n=40, d=10):")
    rng = random.Random(3)
    from repro.graph.generators import random_connected_network

    net = random_connected_network(40, 10.0, rng)
    print(f"  {'jitter':>7s} {'delivery':>9s} {'collisions':>11s}")
    for jitter in (0.0, 0.5, 2.0, 8.0):
        delivered, collisions = [], []
        for trial in range(10):
            mac = CollisionMac(delay=1.0, jitter=jitter, window=0.25)
            outcome = run_broadcast(
                net.topology, Flooding(), source=0, scheme=IdPriority(),
                rng=random.Random(trial), mac=mac,
            )
            delivered.append(len(outcome.delivered) / 40)
            collisions.append(mac.collisions)
        print(
            f"  {jitter:7.1f} {sum(delivered) / 10:9.1%} "
            f"{sum(collisions) / 10:11.1f}"
        )
    print("  (a small jitter restores deliverability, as the paper notes)")


def main() -> None:
    print("delivery with one-snapshot-stale forward sets (n=50, d=8):")
    print(f"  {'max speed':>9s} {'pruned':>8s} {'flooding':>9s}")
    for speed in (0.0, 1.0, 3.0, 6.0):
        pruned, flood = stale_backbone_delivery(speed)
        print(f"  {speed:9.1f} {pruned:8.1%} {flood:9.1%}")
    print(
        "  (flooding's redundancy absorbs mobility; pruned sets degrade "
        "gracefully)"
    )
    collision_recovery()


if __name__ == "__main__":
    main()
