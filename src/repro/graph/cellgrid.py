"""Spatial-hash cell grid for unit-disk neighbor queries.

Pairwise unit-disk construction compares all ``n(n-1)/2`` point pairs, which
caps every fixture near a hundred nodes.  A cell grid with cell size equal
to the transmission radius restores locality: a point's within-radius
partners can only live in its own cell or the eight surrounding ones, so
one scan, :func:`grid_pairs_within`, lists every within-radius pair with
its squared distance in O(n · local density) instead of O(n²).
Construction, link diffing and range calibration in
:mod:`repro.graph.unit_disk` all read that one scan.

The grid is a plain dict keyed by integer cell coordinates — only occupied
cells exist, so memory is O(n) regardless of how sparse the deployment is.
Iteration order everywhere follows the insertion order of ``positions``
(Python dicts preserve it), which keeps every derived artifact — node
order, candidate order, flip lists — deterministic and byte-identical to
the pairwise reference: the actual link decision is the *same*
``distance_squared_to(...) <= radius²`` float comparison in both paths,
the grid only prunes pairs that are provably out of range.

Exactness
---------
Cell indices come from a float division, so the grid is trusted only where
that division provably cannot misplace a within-radius pair beyond the
adjacent-cell window:

* for ``radius > 0`` the cell size is ``radius * (1 + 2**-20)`` and
  :func:`grid_is_exact` requires every ``|coordinate| / cell`` quotient to
  stay below 2**30 — then the quotient error (< 2**-22 relatively) is
  smaller than the cell inflation, and two points within ``radius`` land
  at cell indices differing by at most 1;
* ``radius == 0`` uses a tiny positive cell size (:data:`MIN_CELL_SIZE`)
  and is always exact for finite coordinates below 1e158: coordinates that
  differ at all while their squared distance still underflows to ``0.0``
  (which the pairwise comparison links at radius 0) are themselves tiny,
  so their quotients are small; exactly-equal coordinates hash to the
  same cell whatever their magnitude.

When :func:`grid_is_exact` returns ``False`` (astronomical coordinates,
non-finite geometry), callers fall back to the pairwise scan — the
builders in :mod:`repro.graph.unit_disk` do this automatically, so
correctness never depends on the grid.
"""

from __future__ import annotations

import math

from typing import Dict, Iterator, List, Tuple

from .geometry import Point

__all__ = [
    "CellGrid",
    "MIN_CELL_SIZE",
    "grid_is_exact",
    "grid_pairs_within",
]

#: Cell size used for ``radius == 0``.  Any two *distinct* points whose
#: squared distance underflows to 0.0 are closer than ~1.6e-162, which
#: forces their own coordinates below ~1.5e-146 (distinct floats differ by
#: at least one ulp), so their cell quotients stay microscopic.
MIN_CELL_SIZE = 1e-150

#: Relative cell inflation over the radius.  Strictly larger than the
#: worst-case relative error of the index division under the quotient
#: bound below, which is what guarantees the adjacent-cell invariant.
_CELL_INFLATION = 1.0 + 2.0 ** -20

#: Largest |coordinate| / cell_size quotient the grid trusts for positive
#: radii: 2**30 keeps the division's absolute error below 2**-22 cells.
_MAX_CELL_QUOTIENT = float(1 << 30)

#: Coordinate bound for the ``radius == 0`` grid: keeps x / MIN_CELL_SIZE
#: finite so the index floor cannot overflow.
_MAX_ZERO_RADIUS_COORD = 1e158

_NEIGHBOR_OFFSETS: Tuple[Tuple[int, int], ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
)


def _cell_size_for(radius: float) -> float:
    """The grid cell size used for ``radius`` (always positive)."""
    return max(radius * _CELL_INFLATION, MIN_CELL_SIZE)


def grid_is_exact(positions: Dict[int, Point], radius: float) -> bool:
    """Whether the cell grid is guaranteed exact for this geometry.

    True when cell indexing provably lands every within-``radius`` pair in
    the same or adjacent cells (see the module docstring for the float
    analysis).  When False, callers must take the pairwise path; the
    builders in :mod:`repro.graph.unit_disk` do this automatically.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if not math.isfinite(radius):
        return False
    if radius == 0:
        bound = _MAX_ZERO_RADIUS_COORD
    else:
        bound = _MAX_CELL_QUOTIENT * _cell_size_for(radius)
        if not math.isfinite(bound):
            return False
    for p in positions.values():
        # NaN coordinates fail both comparisons and force the fallback.
        if not (abs(p.x) < bound and abs(p.y) < bound):
            return False
    return True


class CellGrid:
    """A spatial hash of points with cell size >= the query radius.

    Supports two usage patterns:

    * **incremental** (:meth:`candidates_then_insert`): scan candidates
      among already-inserted points, then insert — each unordered pair is
      produced exactly once, in insertion order of the second endpoint,
      which is how the unit-disk builders enumerate pairs;
    * **static** (:meth:`insert` everything, then :meth:`near`): query
      arbitrary probe points against the full population.
    """

    __slots__ = ("cell_size", "_cells")

    def __init__(self, radius: float) -> None:
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self.cell_size = _cell_size_for(radius)
        self._cells: Dict[Tuple[int, int], List[int]] = {}

    def _cell_of(self, p: Point) -> Tuple[int, int]:
        return (
            math.floor(p.x / self.cell_size),
            math.floor(p.y / self.cell_size),
        )

    def insert(self, node: int, p: Point) -> None:
        """Insert ``node`` at position ``p``."""
        cell = self._cell_of(p)
        bucket = self._cells.get(cell)
        if bucket is None:
            self._cells[cell] = [node]
        else:
            bucket.append(node)

    def near(self, p: Point) -> Iterator[int]:
        """All inserted nodes in the 9 cells around ``p``, in cell-scan
        order (insertion order within each cell)."""
        cx, cy = self._cell_of(p)
        cells = self._cells
        for dx, dy in _NEIGHBOR_OFFSETS:
            bucket = cells.get((cx + dx, cy + dy))
            if bucket is not None:
                yield from bucket

    def candidates_then_insert(self, node: int, p: Point) -> List[int]:
        """Candidates already inserted near ``p``, then insert ``node``.

        The returned list holds every previously-inserted node whose
        position could possibly be within the grid radius of ``p`` (it
        may include farther ones — callers apply the exact distance
        check).  Inserting after scanning yields each unordered pair
        exactly once over a full pass.
        """
        found = list(self.near(p))
        self.insert(node, p)
        return found


def grid_pairs_within(
    positions: Dict[int, Point], radius: float
) -> Iterator[Tuple[float, int, int]]:
    """``(distance², earlier, later)`` for every pair within ``radius``.

    Each unordered pair is yielded once, grouped by the later endpoint in
    the insertion order of ``positions`` — the same float comparison as
    the pairwise reference decides membership, and the squared distance
    comes along so range calibration needs no second scan.  The caller is
    responsible for checking :func:`grid_is_exact` first.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    grid = CellGrid(radius)
    radius_sq = radius * radius
    for node, p in positions.items():
        for other in grid.candidates_then_insert(node, p):
            d = p.distance_squared_to(positions[other])
            if d <= radius_sq:
                yield d, other, node
