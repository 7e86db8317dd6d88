"""Spatial shards over the cell grid: the owner table of the sharded
mobility driver.

The deployment area is partitioned into **shards** — contiguous blocks
of :class:`~repro.graph.cellgrid.CellGrid` cells — and every node is
owned by the one shard whose block holds its cell.  The sharded driver
(:mod:`repro.experiments.sharded`) hands each worker the nodes of its
shards; Definition 2 locality makes any such split exact, because a
node's decision reads only its own k-hop view.

The grid is pinned from one set of positions (the trace's base
snapshot) and stays byte-stable for the whole sweep: the split is
static, and node movement never moves a node to another shard.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .cellgrid import CellGrid
from .geometry import Point

__all__ = ["ShardGrid"]


class ShardGrid:
    """A ``(sx, sy)`` grid of contiguous cell blocks over a deployment.

    The bounding box of ``positions`` (in cell coordinates, cell side
    from :class:`~repro.graph.cellgrid.CellGrid` for ``radius``) is
    split into ``sx`` runs of columns times ``sy`` runs of rows, as
    evenly as integer division allows; shard ids are row-major
    (``sid = by * sx + bx``).  Points outside the bounding box clamp
    into it, so every position maps to exactly one owning shard even
    after nodes wander past the box the grid was built from.
    """

    def __init__(
        self,
        positions: Dict[int, Point],
        radius: float,
        shape: Tuple[int, int] = (2, 2),
    ) -> None:
        sx, sy = shape
        if sx < 1 or sy < 1:
            raise ValueError(f"shard shape must be >= 1x1, got {sx}x{sy}")
        self.shape = (int(sx), int(sy))
        self.cell_size = CellGrid(radius).cell_size
        cells = [self._cell_of(p) for p in positions.values()]
        if cells:
            self._min_cx = min(cx for cx, _cy in cells)
            self._max_cx = max(cx for cx, _cy in cells)
            self._min_cy = min(cy for _cx, cy in cells)
            self._max_cy = max(cy for _cx, cy in cells)
        else:
            self._min_cx = self._max_cx = 0
            self._min_cy = self._max_cy = 0
        self._x_starts = self._splits(self._max_cx - self._min_cx + 1, sx)
        self._y_starts = self._splits(self._max_cy - self._min_cy + 1, sy)

    @staticmethod
    def _splits(extent: int, blocks: int) -> List[int]:
        """Start offsets of ``blocks`` balanced runs over ``extent`` cells.

        Returns ``blocks + 1`` offsets (the last equals ``extent``); run
        ``i`` covers offsets ``[starts[i], starts[i+1])``.  The first
        ``extent % blocks`` runs get the extra cell, so the partition is
        deterministic and independent of the data.
        """
        base, extra = divmod(extent, blocks)
        starts = [0]
        for index in range(blocks):
            starts.append(starts[-1] + base + (1 if index < extra else 0))
        return starts

    @property
    def shard_count(self) -> int:
        """Total number of shards (``sx * sy``)."""
        return self.shape[0] * self.shape[1]

    def _cell_of(self, p: Point) -> Tuple[int, int]:
        return (
            math.floor(p.x / self.cell_size),
            math.floor(p.y / self.cell_size),
        )

    @staticmethod
    def _block_of(offset: int, starts: List[int]) -> int:
        """The run index whose ``[start, next_start)`` holds ``offset``.

        Zero-width runs (more blocks than cells) are skipped in favour of
        the first run that actually covers the offset.
        """
        for index in range(len(starts) - 1):
            if starts[index] <= offset < starts[index + 1]:
                return index
        return len(starts) - 2

    def owner_of(self, p: Point) -> int:
        """The shard whose core block contains ``p`` (clamped)."""
        cx, cy = self._cell_of(p)
        ox = min(max(cx, self._min_cx), self._max_cx) - self._min_cx
        oy = min(max(cy, self._min_cy), self._max_cy) - self._min_cy
        bx = self._block_of(ox, self._x_starts)
        by = self._block_of(oy, self._y_starts)
        return by * self.shape[0] + bx

    def core_bounds(self, sid: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Inclusive absolute cell bounds ``((cx0, cy0), (cx1, cy1))`` of
        shard ``sid``'s core block (``cx1 < cx0`` for zero-width blocks).
        """
        if not 0 <= sid < self.shard_count:
            raise ValueError(f"shard id out of range: {sid}")
        by, bx = divmod(sid, self.shape[0])
        return (
            (
                self._min_cx + self._x_starts[bx],
                self._min_cy + self._y_starts[by],
            ),
            (
                self._min_cx + self._x_starts[bx + 1] - 1,
                self._min_cy + self._y_starts[by + 1] - 1,
            ),
        )
