"""Reference implementations that the production kernels are checked against.

* The coverage predicates of :mod:`repro.core.coverage`, by the original
  frozenset/union-find method with no per-view state: same names,
  arguments, answers (components may come in another order) and
  ``coverage_evaluations``/``component_decompositions`` counts.
* The unit-disk build, flip diff and calibration of
  :mod:`repro.graph.unit_disk`, by scanning all pairs where production
  reads a cell grid; calibration is one sort of every pair distance.
* :func:`mobility_sweep_by_rebuild`, the full-rebuild oracle for
  :func:`repro.experiments.runner.run_trace_sweep`.
* :func:`substituted`, which runs a whole broadcast or sweep on the
  reference predicates.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..core import coverage as production
from ..core.priority import IdPriority, PriorityScheme
from ..core.unionfind import DisjointSet
from ..core.views import View
from ..experiments.runner import MobilityStep, _forward_decision
from ..graph import unit_disk
from ..graph.geometry import Point
from ..graph.mobility import RandomWaypointModel
from ..graph.topology import Topology
from ..graph.unit_disk import UnitDiskGraph, _all_pairs_within, _extent
from ..instrument import _STACK as _COUNTER_STACK

__all__ = [
    "coverage_condition",
    "strong_coverage_condition",
    "span_condition",
    "uncovered_pairs",
    "higher_priority_components",
    "build_unit_disk_graph",
    "edge_flips",
    "range_for_link_count",
    "mobility_sweep_by_rebuild",
    "substituted",
]

# ----------------------------------------------------------------------
# Coverage
# ----------------------------------------------------------------------


def _higher_priority_nodes(view: View, v: int) -> Set[int]:
    """Visible nodes other than ``v`` with priority above ``Pr(v)``."""
    threshold = view.priority(v)
    return {
        node
        for node in view.graph
        if node != v and view.priority(node) > threshold
    }


def higher_priority_components(view: View, v: int) -> List[Set[int]]:
    """The higher-priority components for ``v``, by union-find."""
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].component_decompositions += 1
    eligible = _higher_priority_nodes(view, v)
    dsu = DisjointSet(eligible)
    for node in eligible:
        for neighbor in view.graph.neighbors(node):
            if neighbor in eligible:
                dsu.union(node, neighbor)
    if view.visited_connected:
        visited = [node for node in eligible if view.is_visited(node)]
        for node in visited[1:]:
            dsu.union(visited[0], node)
    return dsu.groups()


def _neighbor_reach(view: View, v: int) -> Dict[int, Set[int]]:
    """The indices of the components each neighbor of ``v`` touches."""
    membership: Dict[int, int] = {}
    for index, component in enumerate(higher_priority_components(view, v)):
        for node in component:
            membership[node] = index
    reach: Dict[int, Set[int]] = {}
    for u in view.graph.neighbors(v):
        touched: Set[int] = set()
        if u in membership:
            touched.add(membership[u])
        for x in view.graph.neighbors(u):
            if x in membership:
                touched.add(membership[x])
        reach[u] = touched
    return reach


def uncovered_pairs(view: View, v: int) -> List[Tuple[int, int]]:
    """Neighbor pairs of ``v`` lacking a replacement path, sorted."""
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    neighbors = sorted(view.graph.neighbors(v))
    reach = _neighbor_reach(view, v)
    failing: List[Tuple[int, int]] = []
    for i, u in enumerate(neighbors):
        for w in neighbors[i + 1:]:
            if view.graph.has_edge(u, w):
                continue
            if reach[u] & reach[w]:
                continue
            if (
                view.visited_connected
                and view.is_visited(u)
                and view.is_visited(w)
            ):
                # Visited endpoints are mutually connected by convention.
                continue
            failing.append((u, w))
    return failing


def coverage_condition(view: View, v: int) -> bool:
    """Whether every neighbor pair of ``v`` has a replacement path."""
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    return not uncovered_pairs(view, v)


def strong_coverage_condition(view: View, v: int) -> bool:
    """Whether some connected higher-priority component dominates ``N(v)``."""
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    neighbors = view.graph.neighbors(v)
    if not neighbors:
        return True
    for component in higher_priority_components(view, v):
        if _dominates(view, component, neighbors):
            return True
    return False


def _dominates(view: View, component: Set[int], targets: FrozenSet[int]) -> bool:
    return all(
        u in component or (view.graph.neighbors(u) & component)
        for u in targets
    )


def span_condition(view: View, v: int, max_intermediates: int = 2) -> bool:
    """Every neighbor pair joined within ``max_intermediates`` unvisited
    higher-priority intermediates, by one set BFS per pair."""
    if max_intermediates < 0:
        raise ValueError(
            f"max_intermediates must be non-negative, got {max_intermediates}"
        )
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    eligible = frozenset(
        node
        for node in _higher_priority_nodes(view, v)
        if not view.is_visited(node)
    )
    neighbors = sorted(view.graph.neighbors(v))
    return all(
        _bounded_replacement_path(view, u, w, eligible, max_intermediates)
        for i, u in enumerate(neighbors)
        for w in neighbors[i + 1:]
    )


def _bounded_replacement_path(
    view: View, u: int, w: int, eligible: FrozenSet[int], max_intermediates: int
) -> bool:
    """BFS through ``eligible`` from ``u`` to ``w`` with bounded length."""
    if view.graph.has_edge(u, w):
        return True
    seen: Set[int] = set()
    frontier = set(view.graph.neighbors(u)) & eligible
    for _used in range(1, max_intermediates + 1):
        if not frontier:
            return False
        if any(view.graph.has_edge(x, w) for x in frontier):
            return True
        seen |= frontier
        frontier = {
            y
            for x in frontier
            for y in view.graph.neighbors(x)
            if y in eligible and y not in seen
        }
    return False


# ----------------------------------------------------------------------
# Unit disk
# ----------------------------------------------------------------------


def build_unit_disk_graph(
    positions: Dict[int, Point], radius: float
) -> UnitDiskGraph:
    """Link every pair within ``radius``, found by scanning all pairs."""
    topology = Topology(nodes=positions)
    for _, u, v in _all_pairs_within(positions, radius):
        topology.add_edge(u, v)
    return UnitDiskGraph(topology=topology, positions=positions, radius=radius)


def edge_flips(
    positions: Dict[int, Point], radius: float, topology: Topology
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """``(added, removed)``: the sorted edge diff from ``topology`` to the
    all-pairs unit-disk graph at ``positions``."""
    target = build_unit_disk_graph(positions, radius).topology
    added = sorted(e for e in target.edges() if not topology.has_edge(*e))
    removed = sorted(e for e in topology.edges() if not target.has_edge(*e))
    return added, removed


def range_for_link_count(positions: Dict[int, Point], links: int) -> float:
    """The calibrated range for ``links`` links, from one sort of every
    pair distance (same threshold rule and errors as production)."""
    n = len(positions)
    max_links = n * (n - 1) // 2
    if links < 0 or links > max_links:
        raise ValueError(
            f"cannot realise {links} links with {n} nodes (max {max_links})"
        )
    if max_links == 0:
        return 0.0
    dx, dy = _extent(positions)
    diameter = 2.0 * math.sqrt(dx * dx + dy * dy)
    distances = sorted(d for d, _, _ in _all_pairs_within(positions, diameter))
    rank = max(links, 1)
    if len(distances) < rank:
        raise ValueError("cannot calibrate a range: non-finite positions")
    threshold = distances[rank - 1]
    larger: Optional[float] = next(
        (d for d in distances[rank:] if d > threshold), None
    )
    if links == 0:
        if threshold == 0.0:
            raise ValueError(
                "cannot realise 0 links: two nodes share a position"
            )
        return math.sqrt(threshold) / 2.0
    if larger is not None:
        return math.sqrt((threshold + larger) / 2.0)
    return math.sqrt(threshold * 1.0000001 + 1e-12)


# ----------------------------------------------------------------------
# Mobility
# ----------------------------------------------------------------------


def mobility_sweep_by_rebuild(
    model: RandomWaypointModel,
    steps: int,
    dt: float,
    scheme: Optional[PriorityScheme] = None,
    k: int = 2,
) -> List[MobilityStep]:
    """Forward sets across ``steps`` steps of ``model``, rebuilding the
    unit-disk graph and re-deciding every node at every step.

    Only :meth:`RandomWaypointModel.advance` draws from the model's RNG,
    so on an equally seeded model the steps' forward sets and flip
    counts equal ``run_trace_sweep(record_flip_trace(model, steps, dt),
    scheme, k)``'s.  The graph comes from the production cell-grid scan
    and each decision from the runner's own coverage call, so inside
    :func:`substituted` this sweep runs on the reference predicates.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    scheme = scheme or IdPriority()
    # Diff step 0 against the pre-advance positions, exactly like the
    # recorded trace's base graph, so flip counts line up.
    previous = unit_disk.build_unit_disk_graph(
        model.positions(), model.radius
    ).topology
    results: List[MobilityStep] = []
    for step in range(steps):
        model.advance(dt)
        positions = model.positions()
        added, removed = unit_disk.edge_flips(positions, model.radius, previous)
        graph = unit_disk.build_unit_disk_graph(positions, model.radius).topology
        metrics = scheme.metrics(graph)
        results.append(
            MobilityStep(
                step=step,
                time=model.time,
                forward=tuple(sorted(
                    node for node in graph.nodes()
                    if _forward_decision(graph, node, k, scheme, metrics)
                )),
                redecided=graph.node_count(),
                added_edges=len(added),
                removed_edges=len(removed),
            )
        )
        previous = graph
    return results


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------


def _rebind(swaps: List[Tuple[object, object]]) -> None:
    """In every loaded ``repro`` module but this one, point each attribute
    that is some ``old`` at its ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or name == __name__ or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            for old, new in swaps:
                if value is old:
                    setattr(module, attr, new)


@contextmanager
def substituted() -> Iterator[None]:
    """Run the block with every coverage predicate on its reference twin.

    On entry, every attribute of a loaded ``repro`` module that is one of
    the predicates in :mod:`repro.core.coverage`'s ``__all__``, including
    the names other modules bound with ``from ... import``, is rebound to
    the function of the same name here.  On exit, also when the block raises,
    every attribute that is a twin points back at its production
    predicate.  Worker processes forked inside the block inherit the
    rebinding.
    """
    twins = [
        (getattr(production, name), globals()[name])
        for name in production.__all__
    ]
    _rebind(twins)
    try:
        yield
    finally:
        _rebind([(twin, original) for original, twin in twins])
