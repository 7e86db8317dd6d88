"""Views: snapshots of network topology plus broadcast state (Section 2).

A *view* is ``View(t) = (G(t), Pr(V, t))`` — a topology snapshot together
with a priority vector.  A *local* view at node ``v`` is a subgraph of the
global view whose priorities are component-wise no larger (an invisible node
has the lowest priority ``(0, ..., id)``).

The paper's conventions encoded here:

* every node's priority is ``(S, metric..., id)`` (see ``repro.core.priority``),
* an invisible node has status 0 and zero-padded metrics,
* **all visited nodes are assumed connected under any local view**, because
  each of them is connected to the source; the coverage machinery consults
  :attr:`View.visited_connected` for this,
* a k-hop local view contains the view graph ``G_k(v)`` of Definition 2.

Views are immutable value objects; protocol state lives in the simulation
engine, which *builds* fresh views as knowledge accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..graph.nodeindex import NodeIndex
from ..graph.topology import Topology
from . import status as st
from .priority import PriorityKey, PriorityScheme, make_key

__all__ = [
    "EpochCache",
    "View",
    "epoch_cache",
    "global_view",
    "local_view",
    "share_epoch_cache",
    "super_view",
    "view_cache",
]


def view_cache(view: "View") -> Dict:
    """The per-view derived-value cache (lazily attached, dirty-aware).

    Views are immutable value objects, so anything derived from one — a
    status bitmask, say — is stable for the view's lifetime and can be
    kept on the instance itself.
    ``with_status`` and every view constructor return fresh instances,
    so a state change never sees a stale cache.  The dict is attached
    with ``object.__setattr__`` to bypass the frozen dataclass guard.

    The cache records the graph's :meth:`~repro.graph.topology.Topology.
    version_stamp` at attach time and is reset wholesale when the stamp
    moves (a view over a graph later mutated through ``apply_delta`` or
    the plain mutators), so nothing derived from the old graph survives.
    """
    stamp = view.graph.version_stamp()
    attrs = view.__dict__
    cache = attrs.get("_derived_cache")
    if cache is None or attrs["_derived_cache_stamp"] != stamp:
        cache = {}
        object.__setattr__(view, "_derived_cache", cache)
        object.__setattr__(view, "_derived_cache_stamp", stamp)
    return cache


class EpochCache:
    """State that depends on a view's topology and metrics but not on
    its status map, for one topology epoch.

    ``state`` belongs to the coverage kernel (``None`` until it stores
    something); ``stamp`` is the graph ``version_stamp()`` it was
    computed against.  A slotted holder rather than a dict because
    :meth:`~repro.sim.engine.SimulationEnvironment.make_view` keeps one
    per view graph, and a 10k-node deployment has 10k view graphs.
    """

    __slots__ = ("stamp", "state")

    def __init__(self) -> None:
        self.stamp: Optional[int] = None
        self.state = None


def share_epoch_cache(view: "View", cache: EpochCache) -> "View":
    """Attach ``cache`` as ``view``'s epoch cache and return ``view``.

    ``cache`` must belong to exactly one (view graph, metrics table)
    pair: every view sharing it must have that graph and that metrics
    mapping.  :meth:`repro.sim.engine.SimulationEnvironment.make_view`
    keeps one per view graph, so all the per-message views it builds
    over one graph share their status-free coverage state.
    """
    object.__setattr__(view, "_epoch_cache", cache)
    return view


def epoch_cache(view: "View") -> EpochCache:
    """The :class:`EpochCache` for ``view``'s topology epoch.

    A view given a shared cache by :func:`share_epoch_cache` gets that
    cache, emptied in place when the graph's ``version_stamp()`` has
    moved, so no view reads state from before a mutation (``apply_delta``
    or a plain mutator).  Any other view (``local_view``, ``global_view``,
    ``super_view``, ``with_status``, or one built directly) gets one kept
    in its own :func:`view_cache`, so the state lives and dies with the
    view.
    """
    shared = view.__dict__.get("_epoch_cache")
    if shared is None:
        # view_cache itself resets when the stamp moves.
        memo = view_cache(view)
        shared = memo.get("epoch-cache")
        if shared is None:
            shared = memo["epoch-cache"] = EpochCache()
        return shared
    stamp = view.graph.version_stamp()
    if shared.stamp != stamp:
        shared.stamp = stamp
        shared.state = None
    return shared


@dataclass(frozen=True)
class View:
    """An immutable snapshot ``(G', Pr')`` of topology and broadcast state.

    Attributes
    ----------
    graph:
        The visible (sub)graph.
    status:
        ``S`` value per visible node; nodes absent from the mapping are
        un-visited (status 1).  Invisible nodes — those absent from
        ``graph`` — always rank lowest regardless of this mapping.
    metrics:
        Priority-scheme metric tuple per node.  Only visible nodes are
        looked up, so the table may cover more (``make_view`` passes the
        whole deployment's); a visible node it lacks gets the padding.
    metric_padding:
        Zero metrics used for invisible nodes, so keys stay comparable.
    visited_connected:
        Whether visited nodes are treated as mutually connected (the local
        view convention; safe globally too because forwarders form a
        connected set through the source).
    """

    graph: Topology
    status: Mapping[int, float] = field(default_factory=dict)
    metrics: Mapping[int, Tuple[float, ...]] = field(default_factory=dict)
    metric_padding: Tuple[float, ...] = ()
    visited_connected: bool = True

    def status_of(self, node: int) -> float:
        """``S(node)``: 0 for invisible nodes, 1 when unrecorded."""
        if node not in self.graph:
            return st.INVISIBLE
        return self.status.get(node, st.UNVISITED)

    def priority(self, node: int) -> PriorityKey:
        """The full lexicographic key ``(S, metric..., id)`` of ``node``."""
        if node not in self.graph:
            return make_key(st.INVISIBLE, self.metric_padding, node)
        metric = self.metrics.get(node, self.metric_padding)
        return make_key(self.status_of(node), metric, node)

    @property
    def index(self) -> NodeIndex:
        """The visible graph's node → bit-position mapping."""
        return self.graph.node_index()

    def _status_mask(self, threshold: float) -> int:
        """Mask of visible nodes with status at or above ``threshold``.

        Only the explicit status mapping is scanned: unrecorded nodes sit
        at un-visited (1.0), below every threshold used here.
        """
        index = self.graph.node_index()
        mask = 0
        for node, value in self.status.items():
            if value >= threshold and node in index:
                mask |= index.bit(node)
        return mask

    @property
    def visited_mask(self) -> int:
        """Visited nodes as a bitmask under :attr:`index` (memoised)."""
        cache = view_cache(self)
        mask = cache.get("visited_mask")
        if mask is None:
            mask = self._status_mask(st.VISITED)
            cache["visited_mask"] = mask
        return mask

    @property
    def designated_mask(self) -> int:
        """Designated-or-higher nodes as a bitmask (memoised)."""
        cache = view_cache(self)
        mask = cache.get("designated_mask")
        if mask is None:
            mask = self._status_mask(st.DESIGNATED)
            cache["designated_mask"] = mask
        return mask

    def visited(self) -> FrozenSet[int]:
        """All visible nodes with visited status."""
        return frozenset(self.index.members(self.visited_mask))

    def designated(self) -> FrozenSet[int]:
        """All visible nodes with designated-or-higher status."""
        return frozenset(self.index.members(self.designated_mask))

    def is_visited(self, node: int) -> bool:
        """Whether ``node`` is visible and visited."""
        return self.status_of(node) >= st.VISITED

    def with_status(self, updates: Mapping[int, float]) -> "View":
        """A new view with ``updates`` merged into the status map.

        Updates only ever *raise* a node's status (priorities increase
        monotonically along time); attempts to lower one raise
        ``ValueError``.
        """
        merged: Dict[int, float] = dict(self.status)
        for node, value in updates.items():
            current = merged.get(node, st.UNVISITED)
            if value < current:
                raise ValueError(
                    f"status of node {node} cannot decrease "
                    f"({current} -> {value})"
                )
            merged[node] = value
        return View(
            graph=self.graph,
            status=merged,
            metrics=self.metrics,
            metric_padding=self.metric_padding,
            visited_connected=self.visited_connected,
        )


def _restrict_metrics(
    all_metrics: Mapping[int, Tuple[float, ...]],
    visible: Iterable[int],
    padding: Tuple[float, ...],
) -> Dict[int, Tuple[float, ...]]:
    """Restrict a metrics table to the visible nodes.

    A visible node absent from the table — possible when mobility grows
    the topology after the table was snapshotted — falls back to the
    scheme's padding, i.e. the lowest advertisable metric.
    """
    return {node: all_metrics.get(node, padding) for node in visible}


def _stated_view(
    graph: Topology,
    visited: Iterable[int],
    designated: Iterable[int],
    metrics: Mapping[int, Tuple[float, ...]],
    padding: Tuple[float, ...],
) -> View:
    """A :class:`View` over ``graph`` with known broadcast state.

    State is restricted to the visible nodes (a node cannot use what it
    cannot see).  One pass builds the status map and the
    :attr:`View.visited_mask` / :attr:`View.designated_mask` it implies,
    and the masks are seeded into the view's :func:`view_cache`.
    """
    positions = graph.node_index().positions
    status: Dict[int, float] = {}
    visited_mask = designated_mask = 0
    for node in designated:
        position = positions.get(node)
        if position is not None:
            status[node] = st.DESIGNATED
            designated_mask |= 1 << position
    for node in visited:
        position = positions.get(node)
        if position is not None:
            status[node] = st.VISITED
            visited_mask |= 1 << position
    view = View(
        graph=graph, status=status, metrics=metrics, metric_padding=padding
    )
    view_cache(view).update(
        visited_mask=visited_mask,
        designated_mask=designated_mask | visited_mask,
    )
    return view


def global_view(
    graph: Topology,
    scheme: PriorityScheme,
    visited: Iterable[int] = (),
    designated: Iterable[int] = (),
    metrics: Optional[Mapping[int, Tuple[float, ...]]] = None,
) -> View:
    """The global view of ``graph`` under a priority scheme.

    ``metrics`` may be passed pre-computed (one call to
    ``scheme.metrics(graph)`` per deployment) to avoid recomputation in
    sweeps.
    """
    table = metrics if metrics is not None else scheme.metrics(graph)
    return _stated_view(
        graph, visited, designated, dict(table), scheme.padding()
    )


def local_view(
    graph: Topology,
    center: int,
    k: int,
    scheme: PriorityScheme,
    visited: Iterable[int] = (),
    designated: Iterable[int] = (),
    metrics: Optional[Mapping[int, Tuple[float, ...]]] = None,
) -> View:
    """The k-hop local view at ``center`` (Definition 2).

    The topology is ``G_k(center)``; broadcast state is restricted to the
    visible nodes (a node cannot use what it cannot see); metric values are
    the ones nodes advertise about themselves, i.e. computed on the
    deployment graph, not on the truncated view graph.
    """
    view_graph = graph.k_hop_view_graph(center, k)
    table = metrics if metrics is not None else scheme.metrics(graph)
    padding = scheme.padding()
    return _stated_view(
        view_graph,
        visited,
        designated,
        _restrict_metrics(table, view_graph, padding),
        padding,
    )


def super_view(views: Iterable[View]) -> View:
    """The union view of Theorem 2's proof: union graphs, max priorities.

    ``View_super = (∪ G_i, max_i Pr_i)`` — used by tests to validate that a
    node non-forward under its own local view stays non-forward under the
    collective view.

    The per-node priority is the maximum full key ``(S, metric..., id)``
    over all views the node is visible in (Theorem 2's component-wise max
    of the priority vector); the lexicographic maximum carries the highest
    status, because ``S`` leads the key.
    """
    views = list(views)
    if not views:
        raise ValueError("super_view of no views")
    union = Topology()
    status: Dict[int, float] = {}
    padding = views[0].metric_padding
    metrics: Dict[int, Tuple[float, ...]] = {}
    best: Dict[int, PriorityKey] = {}
    for view in views:
        if view.metric_padding != padding:
            raise ValueError("views use different priority schemes")
        for node in view.graph.nodes():
            union.add_node(node)
            key = view.priority(node)
            if node not in best or key > best[node]:
                best[node] = key
        for u, v in view.graph.edges():
            union.add_edge(u, v)
    for node, key in best.items():
        status[node] = key[0]
        metrics[node] = tuple(key[1:-1])
    return View(
        graph=union,
        status=status,
        metrics=metrics,
        metric_padding=padding,
        visited_connected=all(v.visited_connected for v in views),
    )
