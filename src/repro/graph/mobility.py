"""Random-waypoint mobility model.

The paper evaluates static networks ("the network topology does not change
during the broadcast period") and defers mobility to follow-up work, noting
that "the effect of moderate mobility can be balanced by a slight increase in
the broadcast redundancy".  This module supplies that follow-up substrate: a
random-waypoint walker whose snapshots feed the same broadcast algorithms,
used by the mobility example and ablation benchmarks.  Mobility sweeps
record a walker's link flips once with
:func:`repro.graph.fliptrace.record_flip_trace` and replay them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from .geometry import Area, Point
from .unit_disk import UnitDiskGraph, build_unit_disk_graph

__all__ = ["Waypoint", "RandomWaypointModel"]


@dataclass
class Waypoint:
    """Current motion state of one node."""

    position: Point
    target: Point
    speed: float
    pause_remaining: float = 0.0


class RandomWaypointModel:
    """Random waypoint mobility over a rectangular area.

    Each node repeatedly: picks a uniform random destination, moves toward
    it in a straight line at a uniform random speed from
    ``[min_speed, max_speed]``, then pauses for ``pause_time``.

    The model advances in discrete time steps and can emit the unit-disk
    graph at any instant with :meth:`snapshot`.
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
