"""Tests for the spatial shard grid geometry."""

import random

import pytest

from repro.graph.geometry import Area, Point, random_points
from repro.graph.sharding import ShardGrid


def _positions(seed: int = 3, count: int = 60):
    return random_points(count, Area(), random.Random(seed))


class TestShardGridGeometry:
    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            ShardGrid(_positions(), 10.0, shape=(0, 2))
        with pytest.raises(ValueError):
            ShardGrid(_positions(), 10.0, shape=(2, 0))

    def test_owner_unique_and_routed(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(3, 2))
        for p in positions.values():
            owner = grid.owner_of(p)
            assert 0 <= owner < grid.shard_count
            # The owner's core block holds the point's cell.
            (cx0, cy0), (cx1, cy1) = grid.core_bounds(owner)
            cx, cy = grid._cell_of(p)
            assert cx0 <= cx <= cx1 and cy0 <= cy <= cy1

    def test_single_shard_routes_everything_to_zero(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(1, 1))
        for p in positions.values():
            assert grid.owner_of(p) == 0

    def test_core_blocks_partition_the_bounding_box(self):
        positions = _positions()
        grid = ShardGrid(positions, 12.0, shape=(3, 2))
        seen = set()
        for sid in range(grid.shard_count):
            (cx0, cy0), (cx1, cy1) = grid.core_bounds(sid)
            for cx in range(cx0, cx1 + 1):
                for cy in range(cy0, cy1 + 1):
                    assert (cx, cy) not in seen, "core blocks overlap"
                    seen.add((cx, cy))
        spanx = grid._max_cx - grid._min_cx + 1
        spany = grid._max_cy - grid._min_cy + 1
        assert len(seen) == spanx * spany

    def test_core_bounds_rejects_bad_sid(self):
        grid = ShardGrid(_positions(), 12.0, shape=(2, 2))
        with pytest.raises(ValueError):
            grid.core_bounds(4)
        with pytest.raises(ValueError):
            grid.core_bounds(-1)

    def test_points_outside_bounding_box_clamp(self):
        positions = {0: Point(40.0, 40.0), 1: Point(60.0, 60.0)}
        grid = ShardGrid(positions, 10.0, shape=(2, 2))
        far = Point(1e6, -1e6)
        # Clamps to the bounding box's max-x, min-y corner: shard 1.
        assert grid.owner_of(far) == 1

    def test_empty_positions_degenerate_grid(self):
        grid = ShardGrid({}, 10.0, shape=(2, 2))
        assert grid.shard_count == 4
        # Every point clamps into the single (0, 0) cell; with more
        # blocks than cells, the zero-width runs are skipped.
        assert grid.owner_of(Point(55.0, 5.0)) == 0

    def test_balanced_splits(self):
        assert ShardGrid._splits(10, 2) == [0, 5, 10]
        assert ShardGrid._splits(10, 3) == [0, 4, 7, 10]
        assert ShardGrid._splits(2, 4) == [0, 1, 2, 2, 2]

    def test_more_shards_than_cells_skips_empty_blocks(self):
        # Two cells along x, four x-blocks: blocks 2 and 3 are
        # zero-width and must never own a point.
        positions = {0: Point(5.0, 5.0), 1: Point(15.0, 5.0)}
        grid = ShardGrid(positions, 10.0, shape=(4, 1))
        assert [grid.owner_of(p) for p in positions.values()] == [0, 1]
        assert grid.owner_of(Point(1e6, 5.0)) == 1
