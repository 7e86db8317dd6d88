"""Cell grid vs the all-pairs reference: 50-seed equivalence properties.

The spatial-hash builder must be *byte-identical* to the all-pairs scan of
:mod:`repro.check.reference` —
same topologies, same flip lists, same calibrated radii — on random
layouts and on every degenerate geometry the grid's float analysis has to
survive: collinear points, duplicate coordinates, radius 0, everything
crammed into one cell, and coordinates beyond the exactness guard (where
the grid must fall back rather than diverge).
"""

import math
import random

import pytest

from repro.check import reference
from repro.graph import unit_disk
from repro.graph.cellgrid import (
    CellGrid,
    grid_is_exact,
    grid_pairs_within,
)
from repro.graph.geometry import Area, Point, random_points
from repro.graph.unit_disk import (
    build_unit_disk_graph,
    edge_flips,
    range_for_average_degree,
    range_for_link_count,
)

SEEDS = range(50)


def _assert_same_graph(left, right):
    assert left.topology.nodes() == right.topology.nodes()
    assert sorted(left.topology.edges()) == sorted(right.topology.edges())


def _random_layout(seed):
    rng = random.Random(seed)
    kind = rng.choice(["uniform", "collinear", "duplicates", "clustered"])
    n = rng.randint(2, 60)
    if kind == "uniform":
        return random_points(n, Area(100, 100), rng), rng
    if kind == "collinear":
        return (
            {i: Point(rng.uniform(0, 100), 50.0) for i in range(n)},
            rng,
        )
    if kind == "duplicates":
        base = random_points(max(2, n // 2), Area(100, 100), rng)
        positions = dict(base)
        next_id = max(base) + 1
        for _ in range(n - len(base)):
            positions[next_id] = base[rng.choice(sorted(base))]
            next_id += 1
        return positions, rng
    # clustered: everything inside one radius-sized cell
    return (
        {i: Point(50 + rng.uniform(0, 0.5), 50 + rng.uniform(0, 0.5))
         for i in range(n)},
        rng,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_builder_matches_pairwise(seed):
    positions, rng = _random_layout(seed)
    for radius in (0.0, rng.uniform(0.1, 5.0), rng.uniform(5.0, 60.0)):
        grid = build_unit_disk_graph(positions, radius)
        pairwise = reference.build_unit_disk_graph(positions, radius)
        _assert_same_graph(grid, pairwise)


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_flips_match_pairwise(seed):
    positions, rng = _random_layout(seed)
    radius = rng.uniform(1.0, 20.0)
    base = build_unit_disk_graph(positions, radius)
    moved = {
        node: Point(p.x + rng.uniform(-3, 3), p.y + rng.uniform(-3, 3))
        for node, p in positions.items()
    }
    grid = edge_flips(moved, radius, base.topology)
    pairwise = reference.edge_flips(moved, radius, base.topology)
    assert grid == pairwise
    added, removed = grid
    assert added == sorted(added)
    assert removed == sorted(removed)
    assert all(u < w for u, w in added + removed)


@pytest.mark.parametrize("seed", SEEDS)
def test_calibrated_radius_is_byte_identical(seed):
    positions, rng = _random_layout(seed)
    n = len(positions)
    max_links = n * (n - 1) // 2
    for links in sorted({1, max_links, rng.randint(1, max_links)}):
        grid_radius = range_for_link_count(positions, links)
        pairwise_radius = reference.range_for_link_count(positions, links)
        assert grid_radius == pairwise_radius
        realised = build_unit_disk_graph(positions, grid_radius)
        assert realised.link_count >= links


@pytest.mark.parametrize("seed", range(10))
def test_average_degree_calibration_realises_link_count(seed):
    rng = random.Random(seed)
    positions = random_points(200, Area(100, 100), rng)
    radius, links = range_for_average_degree(positions, 6.0)
    network = build_unit_disk_graph(positions, radius)
    assert network.link_count == links == 600


def test_zero_links_with_duplicate_positions_raises():
    """Regression: radius 0 still links coincident nodes, so no radius can
    realise an empty graph — the old sqrt(0)/2 = 0 return violated the
    contract silently."""
    positions = {0: Point(1.0, 1.0), 1: Point(1.0, 1.0), 2: Point(5.0, 9.0)}
    for impl in (unit_disk, reference):
        with pytest.raises(ValueError, match="share a position"):
            impl.range_for_link_count(positions, 0)
        # The coincident pair is indeed linked at radius 0, both ways.
        network = impl.build_unit_disk_graph(positions, 0.0)
        assert network.topology.edges() == [(0, 1)]


def test_zero_links_without_duplicates_yields_empty_graph():
    rng = random.Random(11)
    positions = random_points(40, Area(100, 100), rng)
    for impl in (unit_disk, reference):
        radius = impl.range_for_link_count(positions, 0)
        assert radius > 0
        assert build_unit_disk_graph(positions, radius).link_count == 0


def test_radius_zero_links_exactly_coincident_pairs():
    positions = {
        0: Point(0.0, 0.0),
        1: Point(0.0, 0.0),
        2: Point(0.0, 5e-324),  # distinct, squared distance underflows to 0
        3: Point(1.0, 0.0),
    }
    grid = build_unit_disk_graph(positions, 0.0)
    pairwise = reference.build_unit_disk_graph(positions, 0.0)
    _assert_same_graph(grid, pairwise)
    assert grid.topology.has_edge(0, 1)
    assert grid.topology.has_edge(0, 2)  # the underflow pair counts too
    assert not grid.topology.has_edge(0, 3)


def test_exactness_guard_rejects_astronomical_coordinates():
    positions = {0: Point(0.0, 0.0), 1: Point(1e40, 0.0), 2: Point(1e40, 1.0)}
    assert not grid_is_exact(positions, 2.0)
    assert grid_is_exact(positions, 1e32)
    # The builder falls back to all pairs silently and stays correct.
    network = build_unit_disk_graph(positions, 2.0)
    assert sorted(network.topology.edges()) == [(1, 2)]


def test_exactness_guard_rejects_non_finite_geometry():
    positions = {0: Point(0.0, 0.0), 1: Point(float("nan"), 0.0)}
    assert not grid_is_exact(positions, 1.0)
    assert not grid_is_exact({0: Point(0.0, 0.0)}, float("inf"))
    with pytest.raises(ValueError):
        grid_is_exact(positions, -1.0)
    network = build_unit_disk_graph(positions, 1.0)
    assert network.topology.edges() == []
    # Calibration cannot rank a NaN distance: it raises, grid and
    # reference alike, instead of returning a NaN radius.
    for impl in (unit_disk, reference):
        with pytest.raises(ValueError, match="non-finite"):
            impl.range_for_link_count(positions, 1)


def test_grid_pairs_follow_insertion_order():
    positions = {
        7: Point(0.0, 0.0),
        3: Point(0.5, 0.0),
        9: Point(1.0, 0.0),
    }
    pairs = list(grid_pairs_within(positions, 2.0))
    # (distance², earlier, later) in dict insertion order, every pair
    # exactly once.
    assert pairs == [(0.25, 7, 3), (1.0, 7, 9), (0.25, 3, 9)]


def test_calibration_makes_one_scan_per_search_radius(monkeypatch):
    calls = []

    def counting_scan(positions, radius):
        calls.append(radius)
        return grid_pairs_within(positions, radius)

    monkeypatch.setattr(unit_disk, "grid_pairs_within", counting_scan)
    positions = random_points(200, Area(100, 100), random.Random(3))
    radius, links = range_for_average_degree(positions, 6.0)
    # The density-scaled first radius already holds the 600 links and the
    # next larger distance: one scan lists them, with no count pass.
    assert len(calls) == 1
    assert build_unit_disk_graph(positions, radius).link_count == links


def test_first_calibration_scan_is_sized_by_area(monkeypatch):
    scans = []

    def counting_scan(positions, radius):
        pairs = list(grid_pairs_within(positions, radius))
        scans.append(len(pairs))
        return iter(pairs)

    monkeypatch.setattr(unit_disk, "grid_pairs_within", counting_scan)
    positions = random_points(1000, Area(100, 100), random.Random(4))
    _radius, links = range_for_average_degree(positions, 6.0)
    # The first radius comes from the box area, not the diameter, so the
    # scan lists a small multiple of the 3,000 links it has to rank.
    assert links <= scans[0] <= 3 * links


def test_cellgrid_near_scans_nine_cells():
    grid = CellGrid(1.0)
    for node, point in enumerate(
        Point(x, y) for x in (0.5, 1.5, 2.5) for y in (0.5, 1.5, 2.5)
    ):
        grid.insert(node, point)
    # Probe the center cell: every inserted point is within one cell.
    assert sorted(grid.near(Point(1.5, 1.5))) == list(range(9))
    # A probe two cells away must not see the far corner.
    assert 0 not in set(grid.near(Point(3.5, 3.5)))


def test_tied_threshold_distances_are_all_included():
    # Four corners of a square: the two diagonals tie at the threshold.
    positions = {
        0: Point(0.0, 0.0),
        1: Point(1.0, 0.0),
        2: Point(0.0, 1.0),
        3: Point(1.0, 1.0),
    }
    for links in (1, 4, 5, 6):
        grid_radius = range_for_link_count(positions, links)
        pairwise_radius = reference.range_for_link_count(positions, links)
        assert grid_radius == pairwise_radius
        realised = build_unit_disk_graph(positions, grid_radius).link_count
        assert realised >= links
    # links=5 crosses into the tied diagonals: both must be included, so
    # the radius sits just past sqrt(2) (no larger distinct distance).
    radius = range_for_link_count(positions, 5)
    assert build_unit_disk_graph(positions, radius).link_count == 6
    assert math.isclose(radius, math.sqrt(2), rel_tol=1e-6)
    assert radius > math.sqrt(2)
