"""The generic coverage condition and its special cases (Sections 3 and 6).

**Coverage condition** — node ``v`` may take non-forward status if every
pair of its neighbors is connected by a *replacement path* whose
intermediate nodes (if any) all have priority strictly higher than
``Pr(v)``.

**Strong coverage condition** — node ``v`` may take non-forward status if
some *coverage set* ``C(v)`` dominates ``N(v)`` and lies inside one
connected component of the subgraph induced by nodes with priority higher
than ``Pr(v)``.  Strong implies generic (a connected dominating coverage
set yields a replacement path for every pair), and is cheaper to check:
O(D^2) versus O(D^3) in the local density D.

**Span condition** — the coverage condition with two restrictions (the
paper's "enhanced Span"): no visited intermediates, and replacement paths of
at most three hops (at most two intermediates).

All three operate on a :class:`~repro.core.views.View` and honour the
"visited nodes are mutually connected" convention when
``view.visited_connected`` is set.

Backends
--------
Two interchangeable implementations compute every predicate:

* ``bitset`` (the default) — the node-indexed bitmask kernel.  Components
  come from word-parallel flood-fills
  (:func:`repro.graph.nodeindex.flood_fill` replaces the union-find
  pass), each neighbor's component reach is a bitmap so a pair check is
  one ``&``, and domination is ``targets & ~cover == 0``.  The kernel is
  split in two parts:

  - **The epoch part** depends on the view graph, the metrics and the
    graph's ``version_stamp()``, not on status.  Per decider ``v`` it
    holds ``static_higher[v]``, the nodes whose ``(metric, id)`` key
    ranks above ``v``'s, and ``v``'s status-free uncovered pairs and
    strong verdict.  The first decider of an epoch gets its mask from a
    linear key scan and computes its pairs and verdict by flood fill
    from its second UNVISITED decision on; the first decision stores
    nothing more, so a k-hop view graph, which only its centre decides
    on, does no extra work.  A second distinct decider pays one sort
    (a suffix table serving every later mask) and one
    decreasing-priority union-find sweep
    (:func:`~repro.core.unionfind.priority_sweep`) that fills every
    visible decider's pairs and verdict in O((n + m)·α).  A view shared
    by all nodes, like ``GenericStatic``'s global view, thus costs one
    sweep instead of a flood fill per node.
  - **The per-message overlay** is mask algebra over the view's
    ``visited_mask``/``designated_mask``.  ``S`` leads the priority key,
    so for ``S(v) = UNVISITED`` the eligible set is ``static_higher[v] |
    designated_mask``.  For ``S(v)`` of 1.5 or 2 it is ``(S > S(v)) |
    (static_higher[v] & (S == S(v)))``.  Any other status, or an
    invisible ``v``, takes a linear scan of full keys.

  **Monotone shortcut**, only when ``S(v) = UNVISITED``.  The dynamic
  eligible set then contains the status-free one, and visited fusion and
  the both-visited rule only add replacement paths.  So the dynamic
  uncovered pairs are an in-order sub-list of the status-free ones.  An
  empty status-free list, or a view with no visited and no designated
  node, answers the decision with no flood fill.  Otherwise only the
  listed pairs are re-checked, against the dynamic components that touch
  their endpoints, and :func:`coverage_condition` stops at the first pair
  still uncovered.  Likewise a status-free strong verdict of True stands,
  because each status-free component lies inside a dynamic one, and so
  does False on a status-empty view.  Decisions answered with no
  per-message flood fill are counted as ``coverage_epoch_reuses``.

  **Where the epoch state lives.**  It is read through
  :func:`repro.core.views.epoch_cache`.
  :meth:`~repro.sim.engine.SimulationEnvironment.make_view` gives every
  view it builds over one view graph the same
  :class:`~repro.core.views.EpochCache`, kept in the environment's
  per-view-graph (and so per-scheme) entry.  Every other view
  (``local_view``, ``global_view``, ``super_view``, ``with_status``, a
  hand-built ``View``) keeps the state in its own per-view cache, so for
  those views it lives and dies with the view.
* ``sets`` — the original frozenset/union-find implementation, kept as
  the executable reference.

Select with ``REPRO_COVERAGE_BACKEND=sets`` (or ``bitset``); the test
suite cross-checks that both backends produce identical results —
forward sets are byte-identical across them.
"""

from __future__ import annotations

import os
from array import array
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..graph.nodeindex import flood_fill
from ..instrument import _STACK as _COUNTER_STACK
from . import status as st
from .unionfind import DisjointSet, priority_sweep
from .views import View, epoch_cache, view_cache

__all__ = [
    "coverage_condition",
    "strong_coverage_condition",
    "span_condition",
    "uncovered_pairs",
    "higher_priority_components",
    "coverage_backend",
]

_BACKENDS = ("bitset", "sets")


def coverage_backend() -> str:
    """The active backend name, from ``REPRO_COVERAGE_BACKEND``.

    ``bitset`` (default) or ``sets``.  Read per call so tests
    and A/B benchmarks can flip the environment variable between
    evaluations; memoised results are keyed by backend, so flipping
    mid-view is safe.
    """
    backend = os.environ.get("REPRO_COVERAGE_BACKEND", "bitset")
    if backend not in _BACKENDS:
        raise ValueError(
            f"REPRO_COVERAGE_BACKEND must be one of {_BACKENDS}, "
            f"got {backend!r}"
        )
    return backend


def _memo(view: View, key, compute):
    """Per-view memoisation for the coverage hot path.

    Views are immutable value objects, so any derived quantity — the
    higher-priority decomposition, component membership, neighbor reach —
    is stable for the view's lifetime and can be shared between
    :func:`uncovered_pairs`, :func:`coverage_condition`, and
    :func:`strong_coverage_condition` instead of being recomputed per
    call.  The cache rides on the view instance itself (see
    :func:`repro.core.views.view_cache`); keys carry the backend name
    wherever the computation differs per backend.

    Dirty-awareness comes from ``view_cache`` itself: it stamps the
    cache with the view graph's ``version_stamp()`` and resets it when
    the graph is mutated underneath the view (e.g. by
    ``Topology.apply_delta`` during a mobility sweep), so every memo
    here — components, reach bitmaps, span paths — is invalidated as a
    unit the moment its topology input changes, and survives verbatim
    while the retained view graph stays untouched.
    """
    cache = view_cache(view)
    if key not in cache:
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].coverage_memo_misses += 1
        cache[key] = compute()
    elif _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_memo_hits += 1
    return cache[key]


# ----------------------------------------------------------------------
# Bitset backend: status-free epoch state and the per-message overlay
# ----------------------------------------------------------------------

#: The status values the mask overlay handles.  A view holding any other
#: value (only hand-built views can) takes the key scan.
_OVERLAY_STATUSES = frozenset({st.UNVISITED, st.DESIGNATED, st.VISITED})

#: Lazy-fill marker: the decider has decided once in this epoch.
_DECIDED_ONCE = object()

#: Every this many ranks the epoch's suffix table keeps a full mask.
_CHECKPOINT = 16


class _Decider:
    """Status-free epoch state of one decider ``v`` over one view graph.

    ``uncovered`` is ``v``'s status-free uncovered pairs (a flat tuple of
    bit positions ``(p0, q0, p1, q1, ...)``) and ``strong`` its
    status-free strong verdict.  The epoch's sweep fills both for every
    visible decider.  Before it, the first decider fills them lazily:
    ``None`` before its first UNVISITED decision of the epoch,
    :data:`_DECIDED_ONCE` after it, the values from the second on.
    """

    __slots__ = ("uncovered", "strong")

    def __init__(self, uncovered=None, strong=None) -> None:
        self.uncovered = uncovered
        self.strong = strong


class _Epoch(_Decider):
    """The bitset kernel's status-free state for one view graph epoch.

    ``static_higher[v]`` is the mask of nodes whose ``(metric, id)`` key
    ranks above ``v``'s.  A k-hop view graph is decided on by its centre
    alone, so the epoch is also its first decider's state: ``v``, and
    ``higher`` from one linear key scan.  Every object kept per view
    graph costs memory (a 10k-node deployment has 10k view graphs), so
    nothing more is made until a second decider asks.  That one pays the
    sort and the sweep (:meth:`sweep`).  ``order`` lists positions by
    decreasing key, ``rank`` is each position's index in it, and
    ``checkpoints[c]`` is the mask of the first ``c * _CHECKPOINT``
    positions of ``order``.  Any mask is then at most ``_CHECKPOINT - 1``
    ORs away, and a global view keeps ``n**2 / (8 * _CHECKPOINT)`` bytes
    of masks instead of ``n**2 / 8``.  ``others`` holds every other
    visible decider's state.
    """

    __slots__ = ("v", "higher", "others", "order", "rank", "checkpoints")

    def __init__(self) -> None:
        super().__init__()
        self.v: Optional[int] = None
        self.higher = 0
        self.others: Optional[Dict[int, _Decider]] = None
        self.order: Optional[array] = None
        self.rank: Optional[array] = None
        self.checkpoints: Optional[List[int]] = None

    def sweep(self, view: View) -> None:
        """Sort ``view``'s graph and fill every visible decider's state.

        One :func:`~repro.core.unionfind.priority_sweep` in status-free
        key order gives each decider's uncovered pairs and strong verdict
        in O((n + m)·α), instead of a flood fill per decider.
        """
        keys = _static_keys(view)
        order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        rank = array("L", [0]) * len(keys)
        checkpoints: List[int] = []
        above = 0
        for i, position in enumerate(order):
            if i % _CHECKPOINT == 0:
                checkpoints.append(above)
            rank[position] = i
            above |= 1 << position
        self.order = array("L", order)
        self.rank = rank
        self.checkpoints = checkpoints
        nodes = view.graph.node_index().nodes
        others: Dict[int, _Decider] = {}
        for position, failing, strong in priority_sweep(view.graph, order):
            node = nodes[position]
            if node == self.v:
                self.uncovered, self.strong = tuple(failing), strong
            else:
                others[node] = _Decider(tuple(failing), strong)
        self.others = others

    def higher_at(self, position: int) -> int:
        """``static_higher`` of the node at ``position`` (needs :meth:`sweep`)."""
        i = self.rank[position]
        start = i - i % _CHECKPOINT
        mask = self.checkpoints[i // _CHECKPOINT]
        for above in self.order[start:i]:
            mask |= 1 << above
        return mask


def _static_keys(view: View) -> List[Tuple[float, ...]]:
    """Each visible node's status-free ``(metric..., id)`` key, by position."""
    metrics, padding = view.metrics, view.metric_padding
    return [
        (*metrics.get(node, padding), float(node))
        for node in view.graph.node_index().nodes
    ]


def _decider(view: View, v: int) -> Tuple[_Decider, int]:
    """``v``'s status-free epoch state and ``static_higher[v]``."""
    holder = epoch_cache(view)
    epoch = holder.state
    if epoch is None:
        epoch = holder.state = _Epoch()
    if epoch.v is None:
        keys = _static_keys(view)
        threshold = keys[view.graph.node_index().position(v)]
        mask = 0
        for position, key in enumerate(keys):
            if key > threshold:
                mask |= 1 << position
        epoch.v, epoch.higher = v, mask
    if epoch.v == v:
        return epoch, epoch.higher
    if epoch.others is None:
        epoch.sweep(view)
    return epoch.others[v], epoch.higher_at(
        view.graph.node_index().position(v)
    )


def _overlay_applies(view: View) -> bool:
    """Whether every status in ``view`` is one the overlay handles.

    Entries for invisible nodes are checked too: an odd one only sends
    the view down the (always correct) key scan.
    """
    cache = view_cache(view)
    applies = cache.get("overlay-statuses")
    if applies is None:
        applies = _OVERLAY_STATUSES.issuperset(view.status.values())
        cache["overlay-statuses"] = applies
    return applies


def _eligible_mask(view: View, v: int) -> int:
    """Nodes (other than ``v``) ranking strictly above ``Pr(v)``.

    ``S`` leads the key, so a node outranks ``v`` when its status is
    higher, or equal with a higher status-free ``(metric, id)`` key.  For
    a visible ``v`` this is mask algebra over ``static_higher[v]`` and
    the view's status masks.  An invisible ``v`` (possible through
    :func:`higher_priority_components`) or a status the overlay does not
    handle takes a linear scan of full keys.
    """
    status = view.status.get(v, st.UNVISITED)
    if (
        v in view.graph
        and status in _OVERLAY_STATUSES
        and _overlay_applies(view)
    ):
        _state, higher = _decider(view, v)
        if status == st.UNVISITED:
            return higher | view.designated_mask
        visited = view.visited_mask
        if status == st.VISITED:
            return higher & visited
        return visited | (higher & view.designated_mask & ~visited)
    threshold = view.priority(v)
    statuses, metrics, padding = view.status, view.metrics, view.metric_padding
    mask = 0
    for position, node in enumerate(view.graph.node_index().nodes):
        key = (
            statuses.get(node, st.UNVISITED),
            *metrics.get(node, padding),
            float(node),
        )
        if key > threshold:
            mask |= 1 << position
    return mask


def _decompose(eligible: int, masks: Tuple[int, ...]) -> List[int]:
    """The connected components of ``eligible``, by flood fill."""
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].component_decompositions += 1
    components: List[int] = []
    remaining = eligible
    while remaining:
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].mask_floodfills += 1
        component = flood_fill(remaining & -remaining, eligible, masks)
        remaining &= ~component
        components.append(component)
    return components


def _component_masks(view: View, v: int) -> List[int]:
    """Higher-priority components of ``v`` as masks (memoised)."""
    return _memo(
        view,
        ("component-masks", v),
        lambda: _component_masks_compute(view, v),
    )


def _component_masks_compute(view: View, v: int) -> List[int]:
    eligible = _eligible_mask(view, v)
    components = _decompose(eligible, view.graph.adjacency_masks()[1])
    if view.visited_connected:
        visited = view.visited_mask & eligible
        if visited:
            # All visited nodes are connected through the source even when
            # the view cannot see how: fuse their components into one.
            merged = 0
            separate: List[int] = []
            for component in components:
                if component & visited:
                    merged |= component
                else:
                    separate.append(component)
            if merged:
                components = [merged] + separate
    return components


def _reach_bitmaps(view: View, v: int) -> Dict[int, int]:
    """Per-neighbor component-reach bitmaps (memoised).

    ``reach[u]`` has bit ``i`` set when neighbor ``u`` of ``v`` belongs
    to or touches component ``i`` of the higher-priority decomposition.
    A replacement path for the pair ``(u, w)`` exists exactly when its
    intermediates lie inside one component adjacent to both ends, so the
    pair is replaceable iff ``reach[u] & reach[w]`` is non-zero (or the
    direct edge exists).
    """
    return _memo(
        view, ("reach-bitmaps", v), lambda: _reach_bitmaps_compute(view, v)
    )


def _reach_bitmaps_compute(view: View, v: int) -> Dict[int, int]:
    index, masks = view.graph.adjacency_masks()
    return _reach_of(index, masks, v, _component_masks(view, v))


def _reach_of(
    index, masks: Tuple[int, ...], v: int, components: List[int]
) -> Dict[int, int]:
    node_at = index.node_at
    reach: Dict[int, int] = {}
    remaining = masks[index.position(v)]
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        position = low.bit_length() - 1
        closed = low | masks[position]
        bitmap = 0
        for i, component in enumerate(components):
            if closed & component:
                bitmap |= 1 << i
        reach[node_at(position)] = bitmap
    return reach


# ----------------------------------------------------------------------
# Sets backend: the original frozenset/union-find reference
# ----------------------------------------------------------------------


def _higher_priority_nodes(view: View, v: int) -> Set[int]:
    """Visible nodes other than ``v`` with priority above ``Pr(v)``."""
    threshold = view.priority(v)
    return {
        node
        for node in view.graph
        if node != v and view.priority(node) > threshold
    }


def _components_compute_sets(view: View, v: int) -> List[Set[int]]:
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


def _component_reach_sets(
    view: View, v: int
) -> Tuple[List[Set[int]], Dict[int, Set[int]]]:
    """Components and neighbor reach under the sets backend (memoised)."""
    return _memo(
        view,
        ("reach", v, "sets"),
        lambda: _component_reach_compute_sets(view, v),
    )


def _component_reach_compute_sets(
    view: View, v: int
) -> Tuple[List[Set[int]], Dict[int, Set[int]]]:
    components = higher_priority_components(view, v)
    membership: Dict[int, int] = {}
    for index, component in enumerate(components):
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
    return components, reach


# ----------------------------------------------------------------------
# Public predicates (backend-dispatching)
# ----------------------------------------------------------------------


def higher_priority_components(view: View, v: int) -> List[Set[int]]:
    """Connected components of the higher-priority subgraph for ``v``.

    Components are taken in ``view.graph`` minus ``v`` restricted to nodes
    with priority above ``Pr(v)``; when ``view.visited_connected`` holds,
    all visited nodes are additionally fused into one component (they are
    all connected through the source even if the view cannot see how).

    The result is memoised per ``(view, v)`` and shared by every coverage
    predicate; treat the returned sets as read-only.  Component order is
    backend-dependent (their set of sets is not).
    """
    backend = coverage_backend()
    if backend == "sets":
        return _memo(
            view,
            ("components", v, "sets"),
            lambda: _components_compute_sets(view, v),
        )
    return _memo(
        view,
        ("components", v, "bitset"),
        lambda: [
            set(view.index.members(mask))
            for mask in _component_masks(view, v)
        ],
    )


def uncovered_pairs(view: View, v: int) -> List[Tuple[int, int]]:
    """Neighbor pairs of ``v`` lacking a replacement path.

    The coverage condition holds exactly when this list is empty.  Exposed
    for diagnostics, tests, and the example walkthroughs.  Memoised per
    ``(view, v)``; both backends produce the identical (sorted-pair) list.
    """
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    backend = coverage_backend()
    if backend == "sets":
        return _memo(
            view,
            ("uncovered", v, "sets"),
            lambda: _uncovered_pairs_compute_sets(view, v),
        )
    return _memo(
        view,
        ("uncovered", v, "bitset"),
        lambda: _uncovered_pairs_compute_bitset(view, v),
    )


def _uncovered_pairs_compute_sets(view: View, v: int) -> List[Tuple[int, int]]:
    neighbors = sorted(view.graph.neighbors(v))
    _components, reach = _component_reach_sets(view, v)
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


def _uncovered_pairs_compute_bitset(
    view: View, v: int
) -> List[Tuple[int, int]]:
    epoch = _epoch_uncovered(view, v)
    if epoch is None:
        return _uncovered_pairs_full_bitset(view, v)
    return _overlay_uncovered(view, *epoch)


def _uncovered_pairs_full_bitset(
    view: View, v: int
) -> List[Tuple[int, int]]:
    index, masks = view.graph.adjacency_masks()
    return _failing_pairs(
        index,
        masks,
        v,
        _reach_bitmaps(view, v),
        view.visited_mask if view.visited_connected else 0,
    )


def _epoch_uncovered(
    view: View, v: int
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """``(static_higher[v], status-free uncovered pairs)``, or ``None``.

    ``None`` unless ``S(v) = UNVISITED`` (the shortcut's precondition)
    and ``v``'s state is filled: by the epoch's sweep, or, for the
    epoch's only decider so far, from its second such decision on.  Its
    first decision only marks ``v``, so an epoch that its one decider
    decides once stores nothing beyond ``static_higher[v]``.  The pairs
    are a flat tuple of bit positions ``(p0, q0, p1, q1, ...)``.
    """
    if view.status.get(v, st.UNVISITED) != st.UNVISITED or not (
        _overlay_applies(view)
    ):
        return None
    decider, higher = _decider(view, v)
    static = decider.uncovered
    if static is None:
        decider.uncovered = _DECIDED_ONCE
        return None
    if static is _DECIDED_ONCE:
        index, masks = view.graph.adjacency_masks()
        components = _decompose(higher, masks)
        position = index.position
        static = decider.uncovered = tuple(
            position(node)
            for pair in _failing_pairs(
                index, masks, v, _reach_of(index, masks, v, components), 0
            )
            for node in pair
        )
    return higher, static


def _overlay_uncovered(
    view: View, higher: int, static: Tuple[int, ...], limit: int = 0
) -> List[Tuple[int, int]]:
    """The status-free uncovered pairs that ``view``'s status leaves uncovered.

    Valid only for a decider ``v`` with ``S(v) = UNVISITED``.  Its eligible
    set is then ``static_higher[v] | designated_mask``, a superset of the
    status-free one, and visited fusion and the both-visited rule only add
    replacement paths.  So the dynamic list is the sub-list of ``static``
    whose pairs stay uncovered.  Each pair is checked against the union of
    the dynamic components touching its first endpoint's closed
    neighbourhood.  Those components are flood-filled on demand, so only
    components that touch some pair's endpoint are ever built.  A
    positive ``limit`` stops after that many uncovered pairs.
    """
    index, masks = view.graph.adjacency_masks()
    node_at = index.node_at
    designated = view.designated_mask
    if not static or not designated:
        # No pair to check, or no status to add: the epoch answer stands.
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].coverage_epoch_reuses += 1
        pairs = iter(static)
        return [(node_at(p), node_at(q)) for p, q in zip(pairs, pairs)]
    eligible = higher | designated
    # Visited nodes are designated, so already eligible.
    visited = view.visited_mask if view.visited_connected else 0
    components: List[int] = []
    fused = 0
    reaches: Dict[int, int] = {}
    failing: List[Tuple[int, int]] = []
    pairs = iter(static)
    for p, q in zip(pairs, pairs):
        if visited >> p & 1 and visited >> q & 1:
            # Both visited: fusion would join them; skip the flood fill.
            continue
        reach = reaches.get(p)
        if reach is None:
            seeds = (masks[p] | 1 << p) & eligible
            reach = 0
            for component in components:
                if component & seeds:
                    reach |= component
            seeds &= ~reach
            while seeds:
                if _COUNTER_STACK:
                    _COUNTER_STACK[-1].mask_floodfills += 1
                component = flood_fill(seeds & -seeds, eligible, masks)
                components.append(component)
                reach |= component
                seeds &= ~component
            if reach & visited:
                if not fused:
                    if _COUNTER_STACK:
                        _COUNTER_STACK[-1].mask_floodfills += 1
                    fused = flood_fill(visited, eligible, masks)
                reach |= fused
            reaches[p] = reach
        if reach & (masks[q] | 1 << q):
            continue
        failing.append((node_at(p), node_at(q)))
        if len(failing) == limit:
            break
    if _COUNTER_STACK and not components and not fused:
        _COUNTER_STACK[-1].coverage_epoch_reuses += 1
    return failing


def _failing_pairs(
    index, masks: Tuple[int, ...], v: int, reach: Dict[int, int], visited: int
) -> List[Tuple[int, int]]:
    """``v``'s neighbour pairs with no edge, no shared component, and not
    both visited (``visited`` is 0 when that rule is off)."""
    position = index.position
    neighbors = sorted(index.members(masks[position(v)]))
    # Hoist every per-node lookup out of the O(deg^2) pair loop.
    positions = [position(u) for u in neighbors]
    bits = [1 << p for p in positions]
    adjacency = [masks[p] for p in positions]
    reaches = [reach[u] for u in neighbors]
    count = len(neighbors)
    failing: List[Tuple[int, int]] = []
    for i in range(count):
        adjacency_u = adjacency[i]
        reach_u = reaches[i]
        u_visited = visited & bits[i]
        for j in range(i + 1, count):
            if adjacency_u & bits[j]:
                continue
            if reach_u & reaches[j]:
                continue
            if u_visited and visited & bits[j]:
                # Visited endpoints are mutually connected by convention.
                continue
            failing.append((neighbors[i], neighbors[j]))
    return failing


def coverage_condition(view: View, v: int) -> bool:
    """Whether ``v`` may take non-forward status under the generic condition.

    True when **every pair** of ``v``'s neighbors has a replacement path —
    a direct edge, or a path whose intermediates all rank above ``Pr(v)``.
    A node with zero or one neighbor satisfies the condition vacuously (it
    is never needed to connect anything); the source still forwards
    unconditionally, so coverage is unaffected.
    """
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    if v in view.graph and coverage_backend() == "bitset":
        return _coverage_condition_bitset(view, v)
    return not uncovered_pairs(view, v)


def _coverage_condition_bitset(view: View, v: int) -> bool:
    """:func:`coverage_condition` on the bitset backend.

    Past ``v``'s first UNVISITED decision of the epoch, the overlay stops
    at the first uncovered pair, since one settles the verdict.  Otherwise
    this is ``not uncovered_pairs(view, v)``, sharing its memo.
    """
    key = ("uncovered", v, "bitset")
    pairs = view_cache(view).get(key)
    if pairs is None:
        epoch = _epoch_uncovered(view, v)
        if epoch is not None:
            return not _overlay_uncovered(view, *epoch, limit=1)
        pairs = _memo(view, key, lambda: _uncovered_pairs_full_bitset(view, v))
    return not pairs


def strong_coverage_condition(view: View, v: int) -> bool:
    """Whether some connected higher-priority component dominates ``N(v)``.

    The maximal candidate coverage set is an entire component of the
    higher-priority subgraph, so it suffices to test each component.
    """
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    backend = coverage_backend()
    if backend == "sets":
        neighbors = view.graph.neighbors(v)
        if not neighbors:
            return True
        for component in higher_priority_components(view, v):
            if _dominates(view, component, neighbors):
                return True
        return False
    return _memo(
        view,
        ("strong", v, "bitset"),
        lambda: _strong_coverage_compute_bitset(view, v),
    )


def _strong_coverage_compute_bitset(view: View, v: int) -> bool:
    index, masks = view.graph.adjacency_masks()
    targets = masks[index.position(v)]
    if not targets:
        return True
    if view.status.get(v, st.UNVISITED) == st.UNVISITED and _overlay_applies(
        view
    ):
        # Monotone shortcut: every status-free component lies inside a
        # dynamic one, so a status-free True answers every UNVISITED
        # decision of the epoch.  With no status at all the dynamic
        # components are the status-free ones, so False stands too.
        decider, higher = _decider(view, v)
        static = decider.strong
        if static is None:
            decider.strong = _DECIDED_ONCE
        else:
            if static is _DECIDED_ONCE:
                static = decider.strong = _dominated(
                    masks, targets, _decompose(higher, masks)
                )
            if static or not view.designated_mask:
                if _COUNTER_STACK:
                    _COUNTER_STACK[-1].coverage_epoch_reuses += 1
                return static
    return _dominated(masks, targets, _component_masks(view, v))


def _dominated(
    masks: Tuple[int, ...], targets: int, components: List[int]
) -> bool:
    """Whether one of ``components`` dominates the ``targets`` mask."""
    for component in components:
        # cover = component ∪ N(component); domination is a single test.
        cover = component
        remaining = component
        while remaining:
            low = remaining & -remaining
            cover |= masks[low.bit_length() - 1]
            remaining ^= low
        if targets & ~cover == 0:
            return True
    return False


def _dominates(view: View, component: Set[int], targets: FrozenSet[int]) -> bool:
    return all(
        u in component or (view.graph.neighbors(u) & component)
        for u in targets
    )


def span_condition(view: View, v: int, max_intermediates: int = 2) -> bool:
    """The enhanced-Span restriction of the coverage condition.

    Every pair of neighbors must be connected directly or via at most
    ``max_intermediates`` higher-priority, *un-visited* intermediate nodes
    (Span predates broadcast-state piggybacking).  With the default of two
    intermediates this is exactly the paper's "replacement path no more
    than three hops".

    The eligible intermediate set and every pair's path verdict are
    memoised per view, so re-evaluations (and the pair overlap between
    nodes sharing a view) stop re-running the bounded BFS.
    """
    if max_intermediates < 0:
        raise ValueError(
            f"max_intermediates must be non-negative, got {max_intermediates}"
        )
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    backend = coverage_backend()
    return _memo(
        view,
        ("span", v, max_intermediates, backend),
        lambda: _span_compute(view, v, max_intermediates, backend),
    )


def _span_compute(
    view: View, v: int, max_intermediates: int, backend: str
) -> bool:
    if backend == "sets":
        eligible = _memo(
            view,
            ("span-eligible", v, "sets"),
            lambda: frozenset(
                node
                for node in _higher_priority_nodes(view, v)
                if not view.is_visited(node)
            ),
        )
        neighbors = sorted(view.graph.neighbors(v))
        for i, u in enumerate(neighbors):
            for w in neighbors[i + 1:]:
                if not _memo(
                    view,
                    ("span-pair", v, u, w, max_intermediates, "sets"),
                    lambda u=u, w=w: _bounded_replacement_path_sets(
                        view, u, w, eligible, max_intermediates
                    ),
                ):
                    return False
        return True
    index, masks = view.graph.adjacency_masks()
    eligible = _memo(
        view,
        ("span-eligible", v, "bitset"),
        lambda: _eligible_mask(view, v) & ~view.visited_mask,
    )
    neighbors = sorted(index.members(masks[index.position(v)]))
    for i, u in enumerate(neighbors):
        for w in neighbors[i + 1:]:
            if not _memo(
                view,
                ("span-pair", v, u, w, max_intermediates, "bitset"),
                lambda u=u, w=w: _bounded_replacement_path_bitset(
                    index, masks, u, w, eligible, max_intermediates
                ),
            ):
                return False
    return True


def _bounded_replacement_path_sets(
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


def _bounded_replacement_path_bitset(
    index, masks, u: int, w: int, eligible: int, max_intermediates: int
) -> bool:
    """Mask-frontier BFS through ``eligible`` with bounded path length."""
    adjacency_u = masks[index.position(u)]
    adjacency_w = masks[index.position(w)]
    if adjacency_u & index.bit(w):
        return True
    seen = 0
    frontier = adjacency_u & eligible
    for _used in range(1, max_intermediates + 1):
        if not frontier:
            return False
        if frontier & adjacency_w:
            return True
        seen |= frontier
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & eligible & ~seen
    return False
