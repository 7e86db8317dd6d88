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

The kernel
----------
Every predicate runs on the node-indexed bitmask kernel.  Components
come from word-parallel flood-fills
(:func:`repro.graph.nodeindex.flood_fill`), each neighbor's component
reach is a bitmap so a pair check is one ``&``, and domination is
``targets & ~cover == 0``.  The kernel is split in two parts:

- **The epoch part** depends on the view graph, the metrics and the
  graph's ``version_stamp()``, not on status.  Per decider ``v`` it
  holds ``static_higher[v]``, the nodes whose ``(metric, id)`` key ranks
  above ``v``'s, and ``v``'s status-free uncovered pairs and strong
  verdict.  The first decider of an epoch gets its mask from a linear
  key scan and computes its pairs and verdict by flood fill from its
  second UNVISITED decision on.  Its first decision decomposes
  ``static_higher[v] | designated_mask`` once, stops at the first
  uncovered pair and stores nothing more, so a k-hop view graph, which
  only its centre decides on, does no extra work.  A second distinct
  decider pays one sort (a suffix table serving every later mask) and
  one decreasing-priority union-find sweep
  (:func:`~repro.core.unionfind.priority_sweep`) that fills every
  visible decider's pairs and verdict in O((n + m)·α).  A view shared by
  all nodes, like ``GenericStatic``'s global view, thus costs one sweep
  instead of a flood fill per node.
- **The per-message overlay** is mask algebra over the view's
  ``visited_mask``/``designated_mask``.  ``S`` leads the priority key,
  so for ``S(v) = UNVISITED`` the eligible set is ``static_higher[v] |
  designated_mask``.  For ``S(v)`` of 1.5 or 2 it is ``(S > S(v)) |
  (static_higher[v] & (S == S(v)))``.  Any other status, or an invisible
  ``v``, takes a linear scan of full keys.

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
those views it lives and dies with the view.  No predicate result is
memoised per view: the epoch state is the only thing one predicate call
leaves for the next.

The executable reference is :mod:`repro.check.reference`: the original
frozenset/union-find predicates under the same names.  Tests compare the
two on single views, and its ``substituted()`` runs a whole broadcast or
sweep on the reference; forward sets are byte-identical either way.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

from ..graph.nodeindex import flood_fill
from ..instrument import _STACK as _COUNTER_STACK
from . import status as st
from .unionfind import priority_sweep
from .views import View, epoch_cache, view_cache

__all__ = [
    "coverage_condition",
    "strong_coverage_condition",
    "span_condition",
    "uncovered_pairs",
    "higher_priority_components",
]


def coverage_backend() -> str:
    """Always ``"bitset"``, the one coverage kernel.

    Kept because ledger records name the kernel they measured
    (``benchmarks/ledger/run.py`` stores this value in each record's
    environment); nothing selects on it.
    """
    return "bitset"


# ----------------------------------------------------------------------
# Status-free epoch state and the per-message overlay
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
    """The kernel's status-free state for one view graph epoch.

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
        # ``(metric..., id)`` ranks above ``v``'s: a higher metric tuple,
        # or an equal one and a higher id.
        metrics, padding = view.metrics, view.metric_padding
        threshold = metrics.get(v, padding)
        mask = 0
        for position, node in enumerate(view.graph.node_index().nodes):
            metric = metrics.get(node, padding)
            if metric > threshold or (metric == threshold and node > v):
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


def _components(
    eligible: int, masks: Tuple[int, ...], visited: int
) -> List[int]:
    """The components of ``eligible``, those holding a ``visited`` node
    fused into one (pass 0 when ``view.visited_connected`` is off)."""
    components = _decompose(eligible, masks)
    visited &= eligible
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


# ----------------------------------------------------------------------
# Public predicates
# ----------------------------------------------------------------------


def higher_priority_components(view: View, v: int) -> List[Set[int]]:
    """Connected components of the higher-priority subgraph for ``v``.

    Components are taken in ``view.graph`` minus ``v`` restricted to nodes
    with priority above ``Pr(v)``; when ``view.visited_connected`` holds,
    all visited nodes are additionally fused into one component (they are
    all connected through the source even if the view cannot see how).

    Each call decomposes afresh and returns new sets.  Component order is
    the kernel's (the reference may list them in another order).
    """
    index, masks = view.graph.adjacency_masks()
    visited = view.visited_mask if view.visited_connected else 0
    return [
        set(index.members(mask))
        for mask in _components(_eligible_mask(view, v), masks, visited)
    ]


def uncovered_pairs(view: View, v: int) -> List[Tuple[int, int]]:
    """Neighbor pairs of ``v`` lacking a replacement path.

    The coverage condition holds exactly when this list is empty.  Exposed
    for diagnostics, tests, and the example walkthroughs.  The list holds
    sorted pairs in sorted order.
    """
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    return _uncovered_pairs(view, v)


def _uncovered_pairs(
    view: View, v: int, limit: int = 0
) -> List[Tuple[int, int]]:
    """:func:`uncovered_pairs` for a visible ``v``.

    A positive ``limit`` stops after that many pairs.  For ``S(v) =
    UNVISITED`` the epoch state picks the route.  ``v``'s first decision
    of the epoch only marks it and decomposes ``static_higher[v] |
    designated_mask`` directly, so an epoch its one decider decides once
    stores nothing beyond ``static_higher[v]``.  From the second on, the
    status-free pairs (filled on first need, or by the epoch's sweep) are
    re-checked under the view's status (:func:`_overlay_uncovered`).
    """
    if view.status.get(v, st.UNVISITED) == st.UNVISITED and (
        _overlay_applies(view)
    ):
        decider, higher = _decider(view, v)
        static = decider.uncovered
        if static is None:
            decider.uncovered = _DECIDED_ONCE
            return _uncovered_among(
                view, v, higher | view.designated_mask, limit
            )
        if static is _DECIDED_ONCE:
            # The status-free pairs, as a flat tuple of bit positions
            # ``(p0, q0, p1, q1, ...)``.
            index, masks = view.graph.adjacency_masks()
            pairs = _failing_pairs(
                index, masks, v, _decompose(higher, masks), 0
            )
            position = index.position
            static = decider.uncovered = tuple(
                position(node) for pair in pairs for node in pair
            )
        return _overlay_uncovered(view, higher, static, limit)
    return _uncovered_among(view, v, _eligible_mask(view, v), limit)


def _uncovered_among(
    view: View, v: int, eligible: int, limit: int
) -> List[Tuple[int, int]]:
    """``v``'s uncovered pairs with intermediates drawn from ``eligible``."""
    index, masks = view.graph.adjacency_masks()
    visited = view.visited_mask if view.visited_connected else 0
    components = _components(eligible, masks, visited)
    return _failing_pairs(index, masks, v, components, visited, limit)


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
    index,
    masks: Tuple[int, ...],
    v: int,
    components: List[int],
    visited: int,
    limit: int = 0,
) -> List[Tuple[int, int]]:
    """``v``'s neighbour pairs with no edge, no shared component, and not
    both visited (``visited`` is 0 when that rule is off).  A positive
    ``limit`` stops after that many pairs.

    Each neighbour ``u`` gets a reach bitmap, bit ``i`` set when ``u``
    belongs to or touches ``components[i]``.  A replacement path for the
    pair ``(u, w)`` exists exactly when its intermediates lie inside one
    component adjacent to both ends, so the pair is replaceable iff the
    two bitmaps share a bit (or the direct edge exists).
    """
    position = index.position
    neighbors = sorted(index.members(masks[position(v)]))
    # Hoist every per-node lookup out of the O(deg^2) pair loop.
    positions = [position(u) for u in neighbors]
    bits = [1 << p for p in positions]
    adjacency = [masks[p] for p in positions]
    reaches: List[int] = []
    for bit, adjacent in zip(bits, adjacency):
        closed = bit | adjacent
        reach = 0
        for i, component in enumerate(components):
            if closed & component:
                reach |= 1 << i
        reaches.append(reach)
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
            if len(failing) == limit:
                return failing
    return failing


def coverage_condition(view: View, v: int) -> bool:
    """Whether ``v`` may take non-forward status under the generic condition.

    True when **every pair** of ``v``'s neighbors has a replacement path —
    a direct edge, or a path whose intermediates all rank above ``Pr(v)``.
    A node with zero or one neighbor satisfies the condition vacuously (it
    is never needed to connect anything); the source still forwards
    unconditionally, so coverage is unaffected.  The kernel stops at the
    first uncovered pair, since one settles the verdict.
    """
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    return not _uncovered_pairs(view, v, limit=1)


def strong_coverage_condition(view: View, v: int) -> bool:
    """Whether some connected higher-priority component dominates ``N(v)``.

    The maximal candidate coverage set is an entire component of the
    higher-priority subgraph, so it suffices to test each component.
    """
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
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
        eligible = higher | view.designated_mask
    else:
        eligible = _eligible_mask(view, v)
    visited = view.visited_mask if view.visited_connected else 0
    return _dominated(masks, targets, _components(eligible, masks, visited))


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


def span_condition(view: View, v: int, max_intermediates: int = 2) -> bool:
    """The enhanced-Span restriction of the coverage condition.

    Every pair of neighbors must be connected directly or via at most
    ``max_intermediates`` higher-priority, *un-visited* intermediate nodes
    (Span predates broadcast-state piggybacking).  With the default of two
    intermediates this is exactly the paper's "replacement path no more
    than three hops".  The answer is the first pair without such a path,
    found by one bounded BFS per pair.
    """
    if max_intermediates < 0:
        raise ValueError(
            f"max_intermediates must be non-negative, got {max_intermediates}"
        )
    if v not in view.graph:
        raise KeyError(f"node {v} not visible in the view")
    if _COUNTER_STACK:
        _COUNTER_STACK[-1].coverage_evaluations += 1
    index, masks = view.graph.adjacency_masks()
    eligible = _eligible_mask(view, v) & ~view.visited_mask
    neighbors = sorted(index.members(masks[index.position(v)]))
    return all(
        _bounded_replacement_path(
            index, masks, u, w, eligible, max_intermediates
        )
        for i, u in enumerate(neighbors)
        for w in neighbors[i + 1:]
    )


def _bounded_replacement_path(
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
