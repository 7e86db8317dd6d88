"""Random-waypoint mobility model.

The paper evaluates static networks ("the network topology does not change
during the broadcast period") and defers mobility to follow-up work, noting
that "the effect of moderate mobility can be balanced by a slight increase in
the broadcast redundancy".  This module supplies that follow-up substrate: a
random-waypoint walker whose sampled snapshots feed the same broadcast
algorithms, used by the mobility example and ablation benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .geometry import Area, Point
from .topology import DeltaReport
from .unit_disk import UnitDiskGraph, build_unit_disk_graph, edge_flips

__all__ = ["SnapshotDelta", "Waypoint", "RandomWaypointModel"]


@dataclass
class Waypoint:
    """Current motion state of one node."""

    position: Point
    target: Point
    speed: float
    pause_remaining: float = 0.0


@dataclass(frozen=True)
class SnapshotDelta:
    """One mobility step expressed as a delta over a shared topology.

    ``graph.topology`` is the *same mutable* :class:`Topology` object
    across every step of one :meth:`RandomWaypointModel.snapshot_deltas`
    iteration — mutated in place through ``apply_delta`` so its query
    cache survives for every node outside the dirty set.  ``report`` is
    ``None`` on steps where no link flipped (the topology is untouched,
    caches survive verbatim).  ``flip_count`` is the total number of
    links that crossed the radius threshold this step
    (``len(added_edges) + len(removed_edges)``) — a cheap pre-computed
    field so routers and trace statistics never re-derive it.
    """

    step: int
    time: float
    graph: UnitDiskGraph
    added_edges: Tuple[Tuple[int, int], ...]
    removed_edges: Tuple[Tuple[int, int], ...]
    report: Optional[DeltaReport]
    flip_count: int


class RandomWaypointModel:
    """Random waypoint mobility over a rectangular area.

    Each node repeatedly: picks a uniform random destination, moves toward
    it in a straight line at a uniform random speed from
    ``[min_speed, max_speed]``, then pauses for ``pause_time``.

    The model advances in discrete time steps and can emit unit-disk graph
    snapshots at any instant with :meth:`snapshot`.
    """

    def __init__(
        self,
        initial_positions: Dict[int, Point],
        radius: float,
        rng: random.Random,
        area: Optional[Area] = None,
        min_speed: float = 0.5,
        max_speed: float = 2.0,
        pause_time: float = 0.0,
    ) -> None:
        if not 0 < min_speed <= max_speed:
            raise ValueError(
                f"need 0 < min_speed <= max_speed, got [{min_speed}, {max_speed}]"
            )
        if pause_time < 0:
            raise ValueError(f"pause_time must be non-negative, got {pause_time}")
        self.area = area or Area()
        self.radius = radius
        self.rng = rng
        self.min_speed = min_speed
        self.max_speed = max_speed
        self.pause_time = pause_time
        self.time = 0.0
        self._states: Dict[int, Waypoint] = {
            node: self._fresh_waypoint(position)
            for node, position in initial_positions.items()
        }

    def _fresh_waypoint(self, position: Point) -> Waypoint:
        return Waypoint(
            position=position,
            target=self.area.random_point(self.rng),
            speed=self.rng.uniform(self.min_speed, self.max_speed),
        )

    def positions(self) -> Dict[int, Point]:
        """Current node positions."""
        return {node: state.position for node, state in self._states.items()}

    def advance(self, dt: float) -> None:
        """Advance every node by ``dt`` time units."""
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        self.time += dt
        for node, state in self._states.items():
            self._advance_one(node, state, dt)

    def _advance_one(self, node: int, state: Waypoint, dt: float) -> None:
        remaining = dt
        while remaining > 1e-12:
            if state.pause_remaining > 0:
                pause = min(state.pause_remaining, remaining)
                state.pause_remaining -= pause
                remaining -= pause
                if state.pause_remaining <= 0:
                    fresh = self._fresh_waypoint(state.position)
                    state.target = fresh.target
                    state.speed = fresh.speed
                continue
            gap = state.position.distance_to(state.target)
            step = state.speed * remaining
            if step < gap:
                frac = step / gap
                state.position = Point(
                    state.position.x + (state.target.x - state.position.x) * frac,
                    state.position.y + (state.target.y - state.position.y) * frac,
                )
                remaining = 0.0
            else:
                state.position = state.target
                remaining -= gap / state.speed if state.speed > 0 else remaining
                state.pause_remaining = self.pause_time
                if self.pause_time == 0:
                    fresh = self._fresh_waypoint(state.position)
                    state.target = fresh.target
                    state.speed = fresh.speed

    def snapshot(self) -> UnitDiskGraph:
        """The unit-disk graph induced by current positions."""
        return build_unit_disk_graph(self.positions(), self.radius)

    def snapshots(self, dt: float, count: int) -> Iterator[UnitDiskGraph]:
        """Yield ``count`` snapshots, advancing ``dt`` before each.

        Steps where no link crosses the radius threshold reuse the
        previous snapshot's :class:`Topology` object unchanged (only the
        positions differ), so downstream epoch caches survive verbatim
        instead of being rebuilt for an identical adjacency.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        previous: Optional[UnitDiskGraph] = None
        for _ in range(count):
            self.advance(dt)
            current = self.positions()
            if previous is not None:
                added, removed = edge_flips(
                    current, self.radius, previous.topology
                )
                if not added and not removed:
                    previous = UnitDiskGraph(
                        topology=previous.topology,
                        positions=current,
                        radius=self.radius,
                    )
                    yield previous
                    continue
            previous = build_unit_disk_graph(current, self.radius)
            yield previous

    def snapshot_deltas(
        self,
        dt: float,
        count: int,
        extra_radii: Iterable[int] = (),
    ) -> Iterator[SnapshotDelta]:
        """Yield ``count`` steps as deltas over one shared topology.

        The delta-emitting variant of :meth:`snapshots`: the unit-disk
        graph is built once from the pre-advance positions, then each
        step diffs the new positions against the shared topology
        (:func:`~repro.graph.unit_disk.edge_flips`) and applies the flip
        set through :meth:`Topology.apply_delta`, so every cached query
        outside the dirty ball survives the step.  ``extra_radii`` is
        forwarded to ``apply_delta`` for callers that keep their own
        radius-keyed caches (e.g. k-hop decision caches) and need
        :meth:`DeltaReport.dirty_at` at those radii.

        Step ``i``'s adjacency is identical to the ``i``-th graph from
        :meth:`snapshots` on an equally-seeded model — only the cache
        behaviour differs.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        base = self.snapshot()
        topology = base.topology
        radii = tuple(sorted(dict.fromkeys(extra_radii)))
        for step in range(count):
            self.advance(dt)
            current = self.positions()
            added, removed = edge_flips(current, self.radius, topology)
            report = None
            if added or removed:
                report = topology.apply_delta(
                    added_edges=added,
                    removed_edges=removed,
                    extra_radii=radii,
                )
            yield SnapshotDelta(
                step=step,
                time=self.time,
                graph=UnitDiskGraph(
                    topology=topology,
                    positions=current,
                    radius=self.radius,
                ),
                added_edges=tuple(added),
                removed_edges=tuple(removed),
                report=report,
                flip_count=len(added) + len(removed),
            )
