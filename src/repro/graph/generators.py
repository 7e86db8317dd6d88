"""Network generators for simulations, examples, and tests.

The central generator is :func:`random_connected_network`, which reproduces
the paper's deployment recipe exactly:

* place ``n`` nodes uniformly at random in a restricted 100 x 100 area,
* adjust the transmission range so the unit-disk graph has exactly ``nd/2``
  links for the requested average degree ``d``,
* discard deployments whose graph is not connected and retry.

Deterministic fixtures (grids, rings, stars) complement it for tests.
"""

from __future__ import annotations

import random
from typing import Optional

from .geometry import Area, grid_points, random_points
from .unit_disk import UnitDiskGraph, build_unit_disk_graph, range_for_average_degree

__all__ = [
    "GenerationError",
    "random_network",
    "random_connected_network",
    "grid_network",
    "random_grid_network",
]

#: How many disconnected deployments to tolerate before giving up.  Sparse
#: configurations (n = 100, d = 6) connect a few percent of the time, so the
#: bound is generous; it exists only to turn an impossible request (e.g.
#: d = 1) into an error instead of an infinite loop.
DEFAULT_MAX_ATTEMPTS = 20_000


class GenerationError(RuntimeError):
    """Raised when no connected deployment is found within the attempt budget."""


def random_network(
    n: int,
    average_degree: float,
    rng: random.Random,
    area: Optional[Area] = None,
) -> UnitDiskGraph:
    """One random deployment with a degree-calibrated range.

    The result may be disconnected; use :func:`random_connected_network` for
    the paper's discard-and-retry behaviour.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    area = area or Area()
    positions = random_points(n, area, rng)
    radius, _links = range_for_average_degree(positions, average_degree)
    return build_unit_disk_graph(positions, radius)


def random_connected_network(
    n: int,
    average_degree: float,
    rng: random.Random,
    area: Optional[Area] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> UnitDiskGraph:
    """The paper's generator: retry random deployments until connected.

    Raises :class:`GenerationError` after ``max_attempts`` failures, which
    signals a configuration whose connectivity probability is essentially
    zero rather than bad luck.
    """
    for _attempt in range(max_attempts):
        network = random_network(n, average_degree, rng, area)
        if network.topology.is_connected():
            return network
    raise GenerationError(
        f"no connected deployment found in {max_attempts} attempts "
        f"(n={n}, d={average_degree})"
    )


def grid_network(rows: int, cols: int, radius: float = 1.5) -> UnitDiskGraph:
    """A deterministic grid deployment (unit spacing).

    The default radius 1.5 connects horizontal, vertical, and diagonal
    neighbors — a connected, moderately dense fixture.
    """
    positions = grid_points(rows, cols)
    return build_unit_disk_graph(positions, radius)


def random_grid_network(
    side: int,
    occupancy: float,
    rng: random.Random,
    radius: float = 1.5,
) -> UnitDiskGraph:
    """A random-grid deployment (Calamoneri & Clementi's model).

    Each point of a ``side × side`` unit-spacing lattice holds a node
    independently with probability ``occupancy``; the lattice is scanned
    row-major and occupied points get sequential ids, so the layout is
    fully determined by the ``rng`` stream.  The natural large-``n``
    fixture: node count concentrates around ``occupancy · side²`` with
    bounded local density, so unit-disk construction through the cell
    grid stays O(n) however large the side grows.

    The default radius 1.5 links the (occupied) horizontal, vertical, and
    diagonal lattice neighbors, matching :func:`grid_network`.
    """
    if side < 1:
        raise ValueError(f"side must be positive, got {side}")
    if not 0.0 <= occupancy <= 1.0:
        raise ValueError(
            f"occupancy must be a probability, got {occupancy}"
        )
    lattice = grid_points(side, side)
    positions = {}
    node = 0
    for point in lattice.values():
        if rng.random() < occupancy:
            positions[node] = point
            node += 1
    return build_unit_disk_graph(positions, radius)
