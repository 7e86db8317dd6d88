"""Unit-disk graph construction and transmitter-range calibration.

The paper represents an ad hoc network as a unit disk graph: two nodes are
connected when their geographical distance is within the transmission range
``r``.  Its simulator additionally *calibrates* the range per deployment: "the
transmitter range is adjusted according to a given average node degree d to
produce exactly nd/2 links in the corresponding unit disk graph."  Both
operations live here.

Builders
--------
Every operation reads one pair scan, ``_pairs_within``, which yields
``(distance², u, v)`` for the pairs within a radius.  Two interchangeable
methods produce it:

* ``grid`` (the default) — neighbor candidates come from a spatial-hash
  cell grid (:func:`repro.graph.cellgrid.grid_pairs_within`, cell size =
  radius), so construction, :func:`edge_flips`, and range calibration
  cost O(n · local density) instead of O(n²) time (and calibration O(n)
  instead of O(n²) memory).  Whenever
  :func:`~repro.graph.cellgrid.grid_is_exact` cannot certify the geometry
  (non-finite or astronomical coordinates) the scan falls back to the
  pairwise one.
* ``pairwise`` — the original all-pairs scan, kept as the executable
  reference.

Select with ``REPRO_UDG_BUILDER=pairwise`` (or ``grid``), or pass
``method=`` explicitly.  Both methods apply the identical
``distance² <= radius²`` float comparison to decide each link, so
topologies, flip lists, and calibrated radii are byte-identical — the test
suite cross-checks this on randomized and degenerate layouts.
"""

from __future__ import annotations

import math
import os

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .cellgrid import grid_is_exact, grid_pairs_within
from .geometry import Point
from .topology import Topology

__all__ = [
    "UnitDiskGraph",
    "build_unit_disk_graph",
    "edge_flips",
    "range_for_link_count",
    "range_for_average_degree",
    "udg_builder",
]

_UDG_METHODS = ("grid", "pairwise")


def udg_builder() -> str:
    """The active construction method, from ``REPRO_UDG_BUILDER``.

    ``grid`` (default) or ``pairwise``.  Read per call so tests and A/B
    benchmarks can flip the environment variable between evaluations; the
    two methods produce byte-identical topologies, flip lists, and radii,
    so flipping mid-run is safe.
    """
    method = os.environ.get("REPRO_UDG_BUILDER", "grid")
    if method not in _UDG_METHODS:
        raise ValueError(
            f"REPRO_UDG_BUILDER must be one of {_UDG_METHODS}, "
            f"got {method!r}"
        )
    return method


def _resolve_method(method: Optional[str]) -> str:
    if method is None:
        return udg_builder()
    if method not in _UDG_METHODS:
        raise ValueError(
            f"method must be one of {_UDG_METHODS}, got {method!r}"
        )
    return method


def _pairs_within(
    positions: Dict[int, Point], radius: float, method: Optional[str]
) -> Iterator[Tuple[float, int, int]]:
    """``(distance², u, v)`` for every pair within ``radius``.

    The one pair scan behind every operation in this module: the cell
    grid when ``method`` (or ``REPRO_UDG_BUILDER``) asks for it and
    :func:`~repro.graph.cellgrid.grid_is_exact` certifies the geometry,
    else the all-pairs reference.  Both yield the same pairs with the
    same squared distances; only the order differs.
    """
    if _resolve_method(method) == "grid" and grid_is_exact(positions, radius):
        return grid_pairs_within(positions, radius)
    return _all_pairs_within(positions, radius)


def _all_pairs_within(
    positions: Dict[int, Point], radius: float
) -> Iterator[Tuple[float, int, int]]:
    """The pairwise reference scan: all n(n-1)/2 pairs, earlier first."""
    nodes = list(positions)
    radius_sq = radius * radius
    for i, u in enumerate(nodes):
        pu = positions[u]
        for v in nodes[i + 1:]:
            d = pu.distance_squared_to(positions[v])
            if d <= radius_sq:
                yield d, u, v


@dataclass
class UnitDiskGraph:
    """A unit-disk graph: topology plus the geometry that produced it.

    Attributes
    ----------
    topology:
        The induced undirected graph.
    positions:
        Node id to planar position.
    radius:
        The transmission range used to connect nodes.
    """

    topology: Topology
    positions: Dict[int, Point]
    radius: float

    def __post_init__(self) -> None:
        if set(self.positions) != set(self.topology.nodes()):
            raise ValueError("positions and topology disagree on the node set")

    @property
    def node_count(self) -> int:
        return self.topology.node_count()

    @property
    def link_count(self) -> int:
        return self.topology.edge_count()

    def average_degree(self) -> float:
        """Mean node degree of the induced topology."""
        return self.topology.average_degree()

    def with_radius(
        self, radius: float, method: Optional[str] = None
    ) -> "UnitDiskGraph":
        """Rebuild the graph with a different transmission range."""
        return build_unit_disk_graph(self.positions, radius, method=method)


def build_unit_disk_graph(
    positions: Dict[int, Point], radius: float, method: Optional[str] = None
) -> UnitDiskGraph:
    """Connect every pair of nodes within ``radius`` of each other.

    The check is done on squared distances so no square roots are taken.
    Under the default ``grid`` method candidates come from the 9-cell
    neighborhood of a spatial hash; ``pairwise`` scans all O(n²) pairs.
    Node order, edge set, and every link decision are identical either
    way.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    topology = Topology(nodes=positions)
    for _, u, v in _pairs_within(positions, radius, method):
        topology.add_edge(u, v)
    return UnitDiskGraph(topology=topology, positions=positions, radius=radius)


def edge_flips(
    positions: Dict[int, Point],
    radius: float,
    topology: Topology,
    method: Optional[str] = None,
) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """``(added, removed)``: links that flip between ``topology`` and the
    unit-disk graph induced by ``positions``/``radius``.

    The diff that drives :meth:`Topology.apply_delta` across mobility
    steps.  Additions come from the pair scan of within-radius pairs and
    removals from re-checking only the edges ``topology`` already has —
    O(n · local density + m) under the ``grid`` method.  Both lists hold
    ``(min, max)`` pairs in sorted order (the ordering
    :meth:`Topology.apply_delta` replays), and both methods produce
    identical lists.  The node sets must match — mobility moves nodes,
    it does not add or remove them.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if set(positions) != set(topology.nodes()):
        raise ValueError("positions and topology disagree on the node set")
    added = sorted(
        (u, v) if u < v else (v, u)
        for _, u, v in _pairs_within(positions, radius, method)
        if not topology.has_edge(u, v)
    )
    radius_sq = radius * radius
    removed = sorted(
        (u, v)
        for u, v in topology.edges()
        if not positions[u].distance_squared_to(positions[v]) <= radius_sq
    )
    return added, removed


#: Head room of the first calibration radius over the uniform-density
#: estimate, so the first scan usually holds ``links`` pairs despite the
#: edge effect (pairs near the border have fewer partners).
_FIRST_RADIUS_MARGIN = 1.3


def _extent(positions: Dict[int, Point]) -> Tuple[float, float]:
    """The ``(width, height)`` of the deployment's bounding box."""
    xs = [p.x for p in positions.values()]
    ys = [p.y for p in positions.values()]
    return max(xs) - min(xs), max(ys) - min(ys)


def _threshold_distances(
    positions: Dict[int, Point], links: int, method: Optional[str]
) -> Tuple[float, Optional[float]]:
    """``(threshold, next_larger)`` squared distances for ``links`` links.

    ``threshold`` is the ``links``-th smallest pairwise squared distance
    and ``next_larger`` the smallest strictly greater one (None when the
    threshold is the maximum).  Found by doubling a search radius, with
    one pair scan per radius, until the scan holds ``links`` pairs and a
    larger distance (or covers the whole deployment): only the pairs
    within the search radius are sorted, not all n(n-1)/2 distances.  The
    ``pairwise`` reference starts at the diameter bound, so it is one
    sort of every pair distance.
    """
    dx, dy = _extent(positions)
    # An upper bound on the largest pairwise distance: the factor 2
    # absorbs every rounding in sqrt and in re-squaring the radius during
    # the scan, so pairs at the true diameter count.
    diameter = 2.0 * math.sqrt(dx * dx + dy * dy)
    if _resolve_method(method) == "pairwise":
        radius = diameter
    else:
        # Density-scaled first guess: on a uniform deployment of area A
        # about C(n,2)·πr²/A pairs lie within r, so solve for `links`
        # pairs and add a margin.  A zero-area (collinear) box scales the
        # diameter bound instead.
        n = len(positions)
        share = links / (n * (n - 1) // 2)
        area = dx * dy
        if area > 0.0:
            radius = _FIRST_RADIUS_MARGIN * math.sqrt(share * area / math.pi)
            radius = min(radius, diameter)
        else:
            radius = diameter * math.sqrt(share)
        radius = max(radius, diameter / 4294967296.0)
    while True:
        distances = sorted(
            d for d, _, _ in _pairs_within(positions, radius, method)
        )
        # A NaN diameter (non-finite positions) counts as covered too.
        covered = not radius < diameter
        if len(distances) >= links:
            threshold = distances[links - 1]
            for d in distances[links:]:
                if d > threshold:
                    # Everything outside the search radius is farther
                    # still, so the first in-radius exceedance is global.
                    return threshold, d
            if covered:
                return threshold, None
        elif covered:
            raise ValueError("cannot calibrate a range: non-finite positions")
        radius = min(radius * 2.0, diameter)


def range_for_link_count(
    positions: Dict[int, Point], links: int, method: Optional[str] = None
) -> float:
    """The smallest transmission range producing at least ``links`` links.

    The returned radius lies strictly between the ``links``-th smallest
    pair distance and the next larger distinct one, so floating-point
    rounding cannot drop the threshold pair.  With nodes in general
    position (distinct pairwise distances — almost surely true for random
    placement) the range therefore produces *exactly* ``links`` links;
    tied distances at the threshold are all included ("at least"
    semantics).  With ``links == 0`` a range smaller than the closest pair
    is returned, so the graph is empty; if two nodes share a position no
    such range exists (any radius, including 0, links the coincident
    pair) and a :class:`ValueError` is raised.

    Under the default ``grid`` method the threshold is located by a
    doubling radius search with one grid scan per radius — O(n + links)
    memory instead of materialising all n(n-1)/2 distances — and the
    result is byte-identical to the ``pairwise`` reference.
    """
    n = len(positions)
    max_links = n * (n - 1) // 2
    if links < 0 or links > max_links:
        raise ValueError(
            f"cannot realise {links} links with {n} nodes (max {max_links})"
        )
    if max_links == 0:
        return 0.0
    threshold_sq, larger = _threshold_distances(
        positions, max(links, 1), method
    )
    if links == 0:
        if threshold_sq == 0.0:
            raise ValueError(
                "cannot realise 0 links: two nodes share a position "
                "(every radius, including 0, links the coincident pair)"
            )
        return math.sqrt(threshold_sq) / 2.0
    if larger is not None:
        radius_sq = (threshold_sq + larger) / 2.0
    else:
        radius_sq = threshold_sq * 1.0000001 + 1e-12
    return math.sqrt(radius_sq)


def range_for_average_degree(
    positions: Dict[int, Point],
    average_degree: float,
    method: Optional[str] = None,
) -> Tuple[float, int]:
    """Calibrate the range for a target average degree (paper's recipe).

    Produces exactly ``round(n * d / 2)`` links.  Returns the range and the
    realised link count.
    """
    if average_degree < 0:
        raise ValueError(
            f"average degree must be non-negative, got {average_degree}"
        )
    n = len(positions)
    links = round(n * average_degree / 2.0)
    links = min(links, n * (n - 1) // 2)
    return range_for_link_count(positions, links, method=method), links
