"""Batched numpy word-table backend for the coverage predicates.

Each view pays one decreasing-priority sweep
(:func:`~repro.core.unionfind.priority_sweep`) in its full,
status-aware key order, with visited fusion when
``view.visited_connected`` holds.  The sweep yields every visible node's
uncovered pairs and strong verdict at once (:func:`sweep_compute`), so
one view shared by many deciders pays one O((n + m)·α) pass instead of
one decomposition per node.  The bitset backend runs the same sweep, but
once per view graph epoch in the status-free order, and applies each
message's status as a mask overlay (see :mod:`repro.core.coverage`).

The word table (:meth:`~repro.graph.topology.Topology.word_table` —
the NodeIndex bit layout packed into a dense ``(n, ceil(n/64))`` uint64
array) drives the remaining per-node queries: component materialisation
for :func:`components_compute` and the bounded span BFS run whole-frontier
adjacency unions as vectorised row reductions instead of per-node bigint
loops.

Both entry points produce results identical to the ``bitset`` and ``sets``
backends — same verdicts, same pair lists in the same order, same
component sets — so forward sets stay byte-identical across all three.

This module is imported lazily by :mod:`repro.core.coverage` and only
when ``REPRO_COVERAGE_BACKEND=numpy``; it degrades to ``np = None`` when
numpy is absent (the dispatcher raises a clear error before calling in).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..graph.wordtable import (
    bool_to_positions,
    or_rows,
    words_to_bool,
)

try:  # pragma: no cover - exercised via both CI variants
    import numpy as np
except ImportError:  # pragma: no cover - the no-numpy CI job
    np = None  # type: ignore[assignment]

from ..instrument import _STACK as _COUNTER_STACK
from . import status as st
from .unionfind import priority_sweep
from .views import View

__all__ = ["np_base", "sweep_compute", "components_compute",
           "span_eligible", "bounded_replacement_path"]


class _NumpyBase:
    """Per-view word-table context shared by every numpy predicate.

    ``index``/``words`` come from the view graph's epoch-cached word
    table; ``keys`` holds each node's full priority key in bit-position
    order (the same keys the bitset backend ranks by); ``rank`` maps bit
    position → ascending priority rank, so "strictly higher priority
    than ``v``" is the vectorised comparison ``rank > rank[pos(v)]``.
    """

    __slots__ = (
        "index", "words", "n", "keys", "order_desc", "rank", "visited",
    )

    def __init__(self, view: View) -> None:
        index, words = view.graph.word_table()
        self.index = index
        self.words = words
        n = len(index)
        self.n = n
        status = view.status
        metrics = view.metrics
        padding = view.metric_padding
        unvisited = st.UNVISITED
        self.keys = [
            (status.get(node, unvisited), *metrics.get(node, padding),
             float(node))
            for node in index.nodes
        ]
        order = sorted(range(n), key=self.keys.__getitem__)
        self.order_desc = order[::-1]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n, dtype=np.int64)
        self.rank = rank
        self.visited = np.fromiter(
            (view.is_visited(node) for node in index.nodes),
            dtype=bool,
            count=n,
        )

    def eligible_bool(self, view: View, v: int):
        """Membership array of nodes ranking strictly above ``Pr(v)``.

        One vectorised rank comparison for a visible ``v``; a linear key
        scan against the invisible-rank key otherwise (mirroring the
        bitset backend's fallback).
        """
        if v in self.index:
            return self.rank > self.rank[self.index.position(v)]
        threshold = view.priority(v)
        return np.fromiter(
            (key > threshold for key in self.keys),
            dtype=bool,
            count=self.n,
        )


def np_base(view: View) -> _NumpyBase:
    """The (memoised-by-caller) word-table context for ``view``."""
    return _NumpyBase(view)


def sweep_compute(
    view: View, base: _NumpyBase
) -> Dict[int, Tuple[List[Tuple[int, int]], bool]]:
    """Uncovered pairs and strong verdicts for every visible node.

    One :func:`~repro.core.unionfind.priority_sweep` in full-key order,
    with visited fusion when ``view.visited_connected`` holds.
    """
    nodes = base.index.nodes
    visited = base.visited.tolist() if view.visited_connected else None
    results: Dict[int, Tuple[List[Tuple[int, int]], bool]] = {}
    for p, failing, strong in priority_sweep(
        view.graph, base.order_desc, visited
    ):
        pairs = iter(failing)
        results[nodes[p]] = (
            [(nodes[u], nodes[w]) for u, w in zip(pairs, pairs)],
            strong,
        )
    return results


def components_compute(
    view: View, base: _NumpyBase, v: int
) -> List[Set[int]]:
    """Higher-priority components of ``v`` via word-table flood fills."""
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].component_decompositions += 1
    eligible = base.eligible_bool(view, v)
    words = base.words
    n = base.n
    nodes = base.index.nodes
    remaining = eligible.copy()
    components: List[Set[int]] = []
    while remaining.any():
        seed = int(np.argmax(remaining))
        member = np.zeros(n, dtype=bool)
        member[seed] = True
        frontier = [seed]
        while frontier:
            if _COUNTER_STACK:
                _COUNTER_STACK[-1].mask_floodfills += 1
            grow = words_to_bool(or_rows(words, frontier), n)
            grow &= eligible
            grow &= ~member
            frontier = bool_to_positions(grow)
            member |= grow
        remaining &= ~member
        components.append({nodes[p] for p in bool_to_positions(member)})
    if view.visited_connected:
        fused = eligible & base.visited
        if fused.any():
            visited_nodes = {nodes[p] for p in bool_to_positions(fused)}
            merged: Set[int] = set()
            separate: List[Set[int]] = []
            for component in components:
                if component & visited_nodes:
                    merged |= component
                else:
                    separate.append(component)
            if merged:
                components = [merged] + separate
    return components


def span_eligible(view: View, base: _NumpyBase, v: int):
    """Eligible span intermediates: higher-priority and un-visited."""
    return base.eligible_bool(view, v) & ~base.visited


def bounded_replacement_path(
    base: _NumpyBase, u: int, w: int, eligible, max_intermediates: int
) -> bool:
    """Word-table frontier BFS through ``eligible`` with bounded length."""
    words = base.words
    n = base.n
    position = base.index.position
    u_pos = position(u)
    w_pos = position(w)
    adjacency_u = words_to_bool(words[u_pos], n)
    if adjacency_u[w_pos]:
        return True
    adjacency_w = words_to_bool(words[w_pos], n)
    seen = np.zeros(n, dtype=bool)
    frontier = adjacency_u & eligible
    for _used in range(1, max_intermediates + 1):
        if not frontier.any():
            return False
        if (frontier & adjacency_w).any():
            return True
        seen |= frontier
        grow = words_to_bool(
            or_rows(words, bool_to_positions(frontier)), n
        )
        frontier = grow & eligible & ~seen
    return False
