"""Undirected graph substrate used throughout the library.

An ad hoc network is modelled as an undirected graph (paper assumption 3:
connected, no unidirectional links).  This module implements the graph data
structure from scratch, together with the traversals the broadcast framework
needs:

* breadth-first search and hop distances,
* connectivity and connected components,
* k-hop neighborhoods ``N_k(v)``,
* the paper's k-hop *view graph* ``G_k(v) = (N_k(v), E ∩ (N_{k-1} x N_k))``
  (Definition 2: edges between two nodes that are exactly ``k`` hops from
  ``v`` are *not* part of the k-hop information).

The structure is deliberately small and dependency-free; tests validate it
against networkx oracles.

Traversal results (:meth:`Topology.bfs_distances`,
:meth:`Topology.k_hop_view_graph`, :meth:`Topology.neighbors`, and the
degree aggregates) are memoised behind a mutation-epoch counter: every
structural change (``add_edge``, ``remove_edge``, ``add_node`` of a new
node, ``remove_node``) bumps the epoch and lazily drops the cache, so
mobility snapshots and incremental edits stay correct while repeated
queries on a static deployment — the experiment hot path — are free after
the first computation.

The subset-algebra kernels (k-hop frontiers, view-graph extraction,
induced subgraphs, connected components) run on the node-indexed bitmask
layer of :mod:`repro.graph.nodeindex`: :meth:`Topology.node_index` pins a
stable node → bit-position mapping and :meth:`Topology.adjacency_masks`
caches one ``int`` neighbor mask per node, both invalidated by the same
mutation epoch as every other memoised query.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..instrument import _STACK as _COUNTER_STACK
from .nodeindex import NodeIndex, flood_fill, patch_rows, popcount

__all__ = ["DeltaReport", "Topology"]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class DeltaReport:
    """What one :meth:`Topology.apply_delta` call invalidated.

    ``dirty_nodes`` is the union dirty set over every radius the delta
    had to consider (sorted, so downstream consumers can iterate it
    deterministically).  ``dirty_by_radius`` maps each considered radius
    to its own dirty ball; it is ``None`` when the delta fell back to the
    full-rebuild path, in which case *every* node is dirty at *every*
    radius.  ``entries_retained``/``entries_evicted`` count query-cache
    entries that survived/died (the patched mask table counts as
    retained).
    """

    fast_path: bool
    dirty_nodes: Tuple[int, ...]
    entries_retained: int
    entries_evicted: int
    dirty_by_radius: Optional[Mapping[int, FrozenSet[int]]]

    def dirty_at(self, radius: int) -> FrozenSet[int]:
        """The dirty set at ``radius`` — nodes whose cached radius-
        ``radius`` queries (k-hop masks, truncated BFS, view graphs) may
        have changed.

        On the fallback path everything is dirty.  On the fast path the
        radius must have been considered by the delta (it was either
        present in the query cache or requested through ``extra_radii``);
        asking for an uncomputed radius raises ``KeyError`` rather than
        guessing.
        """
        if self.dirty_by_radius is None:
            return frozenset(self.dirty_nodes)
        try:
            return self.dirty_by_radius[radius]
        except KeyError as exc:
            raise KeyError(
                f"radius {radius} was not considered by this delta; "
                f"pass extra_radii=({radius},) to apply_delta"
            ) from exc


class Topology:
    """A simple undirected graph over integer node ids.

    Self-loops and parallel edges are rejected: neither occurs in a unit-disk
    graph and both would break the broadcast semantics (a node never
    "transmits to itself").
    """

    def __init__(
        self,
        nodes: Iterable[int] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._adj: Dict[int, Set[int]] = {}
        #: Mutation epoch: bumped by every structural change so memoised
        #: query results can be dropped lazily (see :meth:`_cached`).
        self._epoch: int = 0
        self._cache_epoch: int = 0
        self._query_cache: Dict[Tuple, object] = {}
        #: Monotone version stamp: bumped by every structural change
        #: *including* :meth:`apply_delta` (which leaves ``_epoch``
        #: untouched on the fast path so retained cache entries survive).
        #: External caches record :meth:`version_stamp` and consult
        #: :meth:`dirtied_since` to decide what to drop.
        self._version: int = 0
        #: Version at which *every* node was last dirtied (epoch bumps).
        self._all_dirty_version: int = 0
        #: Per-node version of the last delta whose dirty set contained
        #: the node; pruned on epoch bumps (``_all_dirty_version``
        #: dominates everything recorded before them).
        self._node_stamps: Dict[int, int] = {}
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _bump_epoch(self) -> None:
        """Record a wholesale structural change (every node dirty).

        The single chokepoint for epoch bumps: it advances the version
        stamp in lockstep so external dirty-aware caches (views, the
        simulation environment) observe full mutations exactly like
        delta applications — just with an all-dirty node set.
        """
        self._epoch += 1
        self._version += 1
        self._all_dirty_version = self._version
        if self._node_stamps:
            self._node_stamps.clear()

    def add_node(self, node: int) -> None:
        """Add ``node`` if not already present."""
        if node not in self._adj:
            self._adj[node] = set()
            self._bump_epoch()

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed."""
        if u == v:
            raise ValueError(f"self-loop on node {u} is not allowed")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._bump_epoch()

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``{u, v}``; raise if absent."""
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError as exc:
            raise KeyError(f"edge ({u}, {v}) not in graph") from exc
        self._bump_epoch()

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and all incident edges; raise if absent."""
        if node not in self._adj:
            raise KeyError(f"node {node} not in graph")
        for neighbor in self._adj[node]:
            self._adj[neighbor].discard(node)
        del self._adj[node]
        self._bump_epoch()

    def copy(self) -> "Topology":
        """An independent copy of the graph (caches are not shared)."""
        clone = Topology()
        clone._adj = {node: set(nbrs) for node, nbrs in self._adj.items()}
        return clone

    @classmethod
    def _from_adjacency(cls, adj: Dict[int, Set[int]]) -> "Topology":
        """Wrap a ready-made adjacency dict (ownership transfers).

        Internal fast path for the mask-based extractors: the dict must
        be symmetric, self-loop-free, and exclusively owned by the new
        graph.
        """
        graph = cls()
        graph._adj = adj
        return graph

    # ------------------------------------------------------------------
    # Query memoisation
    # ------------------------------------------------------------------

    def _cached(self, key: Tuple, compute):
        """Return ``compute()`` memoised under ``key`` for the current epoch.

        The cache is cleared lazily on first access after any mutation, so
        mutators stay O(1) and a burst of edits costs one invalidation.
        """
        if self._cache_epoch != self._epoch:
            self._query_cache.clear()
            self._cache_epoch = self._epoch
        cache = self._query_cache
        if key not in cache:
            if _COUNTER_STACK:
                _COUNTER_STACK[-1].topology_cache_misses += 1
            cache[key] = compute()
        elif _COUNTER_STACK:
            _COUNTER_STACK[-1].topology_cache_hits += 1
        return cache[key]

    # ------------------------------------------------------------------
    # Incremental deltas (dirty-scoped invalidation)
    # ------------------------------------------------------------------

    def version_stamp(self) -> int:
        """A monotone stamp advanced by every structural change.

        Unlike ``_epoch`` (which :meth:`apply_delta` deliberately leaves
        untouched so the query cache survives), the version stamp moves
        on *every* mutation.  External caches record it and later ask
        :meth:`dirtied_since` which of their entries to drop.
        """
        return self._version

    def node_stamp(self, node: int) -> int:
        """The version at which ``node`` was last in a dirty set."""
        stamp = self._node_stamps.get(node, 0)
        if stamp < self._all_dirty_version:
            return self._all_dirty_version
        return stamp

    def dirtied_since(self, node: int, version: int) -> bool:
        """Whether ``node``'s neighborhood may have changed after
        ``version`` (as returned by :meth:`version_stamp`).

        Conservative: a node absent from the graph, or dirtied at *any*
        radius the intervening deltas considered, reports ``True``.
        """
        if node not in self._adj:
            return True
        return self.node_stamp(node) > version

    def _dirty_ball(self, seeds: Iterable[int], radius: int) -> Set[int]:
        """All nodes within ``radius`` hops of any seed, on the current
        adjacency (seeds not currently in the graph are skipped)."""
        seen = {node for node in seeds if node in self._adj}
        frontier = list(seen)
        for _ in range(radius):
            grown: List[int] = []
            for node in frontier:
                for neighbor in self._adj[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        grown.append(neighbor)
            if not grown:
                break
            frontier = grown
        return seen

    def _patched_mask_table(
        self,
        table: Tuple[NodeIndex, Tuple[int, ...]],
        endpoints: Iterable[int],
    ) -> Tuple[NodeIndex, Tuple[int, ...]]:
        """A copy of the cached mask table with the endpoints' adjacency
        rows rebuilt from the (already mutated) adjacency dict.

        Only endpoint rows can change under an edge-only delta, and the
        node set is unchanged, so the :class:`NodeIndex` itself is
        reused verbatim — masks built before and after the delta stay
        comparable.
        """
        index, masks = table
        patched = patch_rows(
            index, masks, {node: self._adj[node] for node in endpoints}
        )
        return index, patched

    def apply_delta(
        self,
        added_edges: Iterable[Edge] = (),
        removed_edges: Iterable[Edge] = (),
        added_nodes: Iterable[int] = (),
        removed_nodes: Iterable[int] = (),
        extra_radii: Iterable[int] = (),
    ) -> DeltaReport:
        """Apply a structural delta, evicting only dirty cache entries.

        The locality argument (paper Definition 2): a cached radius-``r``
        query for ``v`` — k-hop mask, truncated BFS, view graph — can
        only change if some changed-edge endpoint lies within ``r`` hops
        of ``v`` in the old *or* new graph, because a path of length
        ``<= r`` from ``v`` through a changed edge reaches one of its
        endpoints in ``< r`` hops, and an edge whose endpoints are both
        on the exactly-``r`` ring is invisible in ``G_r(v)`` anyway.  So
        the **fast path** (edge-only deltas between existing nodes)
        computes, per radius present in the query cache (plus any
        ``extra_radii`` the caller's own caches care about), the dirty
        ball around the changed endpoints on the old and the new
        adjacency, evicts exactly those entries, and patches the
        endpoints' :meth:`adjacency_masks` rows in place under the
        stable :class:`~repro.graph.nodeindex.NodeIndex`.

        Node additions/removals (and edges naming unknown endpoints)
        change the index capacity, so they **fall back** to the ordinary
        mutators — a full epoch bump — and the report marks every node
        dirty.  Correctness never depends on the fast path.

        Deltas are validated before anything mutates: removed edges must
        exist, added edges between existing nodes must be absent, added
        nodes must be new, removed nodes must exist, and no edge may be
        both added and removed.
        """
        adds = list(dict.fromkeys(self._normalised(added_edges)))
        drops = list(dict.fromkeys(self._normalised(removed_edges)))
        new_nodes = list(dict.fromkeys(added_nodes))
        dead_nodes = list(dict.fromkeys(removed_nodes))
        radii = sorted(dict.fromkeys(extra_radii))
        for radius in radii:
            if radius < 0:
                raise ValueError(f"radii must be non-negative, got {radius}")
        self._validate_delta(adds, drops, new_nodes, dead_nodes)

        fast = not new_nodes and not dead_nodes and all(
            u in self._adj and v in self._adj for u, v in adds
        )
        if not fast:
            return self._apply_delta_slow(adds, drops, new_nodes, dead_nodes)
        if not adds and not drops:
            # Nothing changed: no version bump, nothing to evict.
            if self._cache_epoch != self._epoch:
                self._query_cache.clear()
                self._cache_epoch = self._epoch
            if _COUNTER_STACK:
                counters = _COUNTER_STACK[-1]
                counters.delta_applies += 1
                counters.cache_entries_retained += len(self._query_cache)
            return DeltaReport(
                fast_path=True,
                dirty_nodes=(),
                entries_retained=len(self._query_cache),
                entries_evicted=0,
                dirty_by_radius={radius: frozenset() for radius in radii},
            )
        return self._apply_delta_fast(adds, drops, radii)

    @staticmethod
    def _normalised(edges: Iterable[Edge]) -> List[Edge]:
        """Edges as ``(min, max)`` tuples; self-loops rejected."""
        result: List[Edge] = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u} is not allowed")
            result.append((u, v) if u < v else (v, u))
        return result

    def _validate_delta(
        self,
        adds: List[Edge],
        drops: List[Edge],
        new_nodes: List[int],
        dead_nodes: List[int],
    ) -> None:
        overlap = set(adds) & set(drops)
        if overlap:
            raise ValueError(
                f"edges both added and removed: {sorted(overlap)}"
            )
        for u, v in drops:
            if not self.has_edge(u, v):
                raise KeyError(f"edge ({u}, {v}) not in graph")
        dead = set(dead_nodes)
        for node in dead_nodes:
            if node not in self._adj:
                raise KeyError(f"node {node} not in graph")
        for node in new_nodes:
            if node in self._adj:
                raise ValueError(f"node {node} already in graph")
        for u, v in adds:
            if u in dead or v in dead:
                raise ValueError(
                    f"added edge ({u}, {v}) touches a removed node"
                )
            if u in self._adj and v in self._adj and self.has_edge(u, v):
                raise ValueError(f"edge ({u}, {v}) already in graph")

    def _apply_delta_slow(
        self,
        adds: List[Edge],
        drops: List[Edge],
        new_nodes: List[int],
        dead_nodes: List[int],
    ) -> DeltaReport:
        """Fallback: node-set changes go through the ordinary mutators
        (full epoch bump; nothing is retained, everything is dirty)."""
        for u, v in drops:
            self.remove_edge(u, v)
        for node in dead_nodes:
            self.remove_node(node)
        for node in new_nodes:
            self.add_node(node)
        for u, v in adds:
            self.add_edge(u, v)
        dirty = tuple(sorted(self._adj))
        if _COUNTER_STACK:
            counters = _COUNTER_STACK[-1]
            counters.delta_applies += 1
            counters.dirty_nodes_invalidated += len(dirty)
        return DeltaReport(
            fast_path=False,
            dirty_nodes=dirty,
            entries_retained=0,
            entries_evicted=len(self._query_cache),
            dirty_by_radius=None,
        )

    def _apply_delta_fast(
        self,
        adds: List[Edge],
        drops: List[Edge],
        extra_radii: List[int],
    ) -> DeltaReport:
        # Flush a pending lazy clear first so the eviction scan only ever
        # sees entries that are live for the current epoch.
        if self._cache_epoch != self._epoch:
            self._query_cache.clear()
            self._cache_epoch = self._epoch

        endpoints = sorted({node for edge in adds + drops for node in edge})
        endpoint_set = set(endpoints)

        # Every radius with cached entries must get a dirty ball, plus
        # any radius the caller's own caches are keyed on.
        radii = set(extra_radii)
        for key in self._query_cache:
            tag = key[0]
            if tag in ("k_hop_mask", "view_graph"):
                radii.add(key[2])
            elif tag == "bfs" and key[2] is not None:
                radii.add(key[2])

        dirty: Dict[int, Set[int]] = {
            radius: self._dirty_ball(endpoints, radius) for radius in radii
        }
        for u, v in drops:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
        for u, v in adds:
            self._adj[u].add(v)
            self._adj[v].add(u)
        for radius in radii:
            dirty[radius] |= self._dirty_ball(endpoints, radius)

        keep: Dict[Tuple, object] = {}
        evicted = 0
        for key, value in self._query_cache.items():
            tag = key[0]
            if tag == "node_index":
                keep[key] = value
            elif tag == "mask_table":
                keep[key] = self._patched_mask_table(value, endpoints)  # type: ignore[arg-type]
            elif tag == "neighbors":
                if key[1] in endpoint_set:
                    evicted += 1
                else:
                    keep[key] = value
            elif tag in ("k_hop_mask", "view_graph"):
                if key[1] in dirty[key[2]]:
                    evicted += 1
                else:
                    keep[key] = value
            elif tag == "bfs":
                if key[2] is None or key[1] in dirty[key[2]]:
                    evicted += 1
                else:
                    keep[key] = value
            else:
                # max_degree and any future aggregate: evict, stay safe.
                evicted += 1
        self._query_cache = keep

        self._version += 1
        dirty_union: Set[int] = set(endpoint_set)
        for ball in dirty.values():
            dirty_union |= ball
        for node in dirty_union:
            self._node_stamps[node] = self._version

        if _COUNTER_STACK:
            counters = _COUNTER_STACK[-1]
            counters.delta_applies += 1
            counters.dirty_nodes_invalidated += len(dirty_union)
            counters.cache_entries_retained += len(keep)
        return DeltaReport(
            fast_path=True,
            dirty_nodes=tuple(sorted(dirty_union)),
            entries_retained=len(keep),
            entries_evicted=evicted,
            dirty_by_radius={
                radius: frozenset(dirty[radius]) for radius in sorted(radii)
            },
        )

    # ------------------------------------------------------------------
    # Node-indexed bitmask layer
    # ------------------------------------------------------------------

    def node_index(self) -> NodeIndex:
        """The node-id → bit-position mapping for the current epoch.

        Positions follow node insertion order.  The index (like every
        mask built against it) is memoised behind the mutation epoch: a
        structural change produces a fresh index, so stale masks can
        never be combined with fresh ones through this accessor.
        """
        return self._cached(("node_index",), lambda: NodeIndex(self._adj))

    def adjacency_masks(self) -> Tuple[NodeIndex, Tuple[int, ...]]:
        """``(index, masks)``: the per-node adjacency bitmask table.

        ``masks[index.position(v)]`` is the neighbor mask ``N(v)``.  The
        table is memoised per epoch and shared between callers — treat
        it as a read-only snapshot.
        """
        return self._cached(("mask_table",), self._mask_table_compute)

    def _mask_table_compute(self) -> Tuple[NodeIndex, Tuple[int, ...]]:
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].mask_table_builds += 1
        index = self.node_index()
        position = index.position
        masks: List[int] = []
        for node in index:
            row = 0
            for neighbor in self._adj[node]:
                row |= 1 << position(neighbor)
            masks.append(row)
        return index, tuple(masks)

    def adjacency_mask(self, node: int) -> int:
        """The neighbor mask ``N(node)`` under :meth:`node_index`."""
        index, masks = self.adjacency_masks()
        try:
            return masks[index.position(node)]
        except KeyError as exc:
            raise KeyError(f"node {node} not in graph") from exc

    def k_hop_mask(self, node: int, k: int) -> int:
        """``N_k(node)`` as a bitmask (includes ``node``; memoised).

        Each BFS level is one OR-sweep over the frontier's adjacency
        rows — the word-parallel form of the recurrence
        ``N_{k+1}(v) = ∪_{u ∈ N_k(v)} N(u) ∪ N_k(v)``.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if node not in self._adj:
            raise KeyError(f"node {node} not in graph")
        return self._cached(
            ("k_hop_mask", node, k),
            lambda: self._k_hop_mask_compute(node, k),
        )

    def _k_hop_mask_compute(self, node: int, k: int) -> int:
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].mask_khop_runs += 1
        index, masks = self.adjacency_masks()
        seen = frontier = index.bit(node)
        for _ in range(k):
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & ~seen
            if not frontier:
                break
            seen |= frontier
        return seen

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def __contains__(self, node: int) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[int]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(nodes={self.node_count()}, edges={self.edge_count()})"
        )

    def nodes(self) -> List[int]:
        """All node ids, in insertion order."""
        return list(self._adj)

    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    def edges(self) -> List[Edge]:
        """All edges, each reported once as ``(min, max)``."""
        return [
            (u, v)
            for u in self._adj
            for v in self._adj[u]
            if u < v
        ]

    def edge_count(self) -> int:
        """Number of (undirected) edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return v in self._adj.get(u, ())

    def neighbors(self, node: int) -> FrozenSet[int]:
        """The open neighbor set ``N(node)`` (memoised per epoch)."""
        if node not in self._adj:
            raise KeyError(f"node {node} not in graph")
        return self._cached(
            ("neighbors", node), lambda: frozenset(self._adj[node])
        )

    def closed_neighbors(self, node: int) -> FrozenSet[int]:
        """The closed neighbor set ``N[node] = N(node) ∪ {node}``."""
        return self.neighbors(node) | {node}

    def degree(self, node: int) -> int:
        """``deg(node) = |N(node)|``."""
        try:
            return len(self._adj[node])
        except KeyError as exc:
            raise KeyError(f"node {node} not in graph") from exc

    def average_degree(self) -> float:
        """Mean degree; 0.0 on an empty graph."""
        if not self._adj:
            return 0.0
        return 2.0 * self.edge_count() / self.node_count()

    def max_degree(self) -> int:
        """Largest degree; 0 on an empty graph (memoised per epoch)."""
        if not self._adj:
            return 0
        return self._cached(
            ("max_degree",),
            lambda: max(len(nbrs) for nbrs in self._adj.values()),
        )

    def is_complete(self) -> bool:
        """Whether every pair of distinct nodes is adjacent."""
        n = self.node_count()
        return self.edge_count() == n * (n - 1) // 2

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def bfs_distances(
        self, source: int, max_hops: Optional[int] = None
    ) -> Dict[int, int]:
        """Hop distances from ``source`` to every reachable node.

        With ``max_hops`` the search is truncated at that radius, which is
        how k-hop neighborhoods are computed.  Memoised per epoch; the
        returned dict is a private copy the caller may mutate.
        """
        return dict(self._bfs_distances_cached(source, max_hops))

    def _bfs_distances_cached(
        self, source: int, max_hops: Optional[int]
    ) -> Dict[int, int]:
        """The shared memoised BFS result — callers must not mutate it."""
        if source not in self._adj:
            raise KeyError(f"node {source} not in graph")
        return self._cached(
            ("bfs", source, max_hops),
            lambda: self._bfs_distances_compute(source, max_hops),
        )

    def _bfs_distances_compute(
        self, source: int, max_hops: Optional[int]
    ) -> Dict[int, int]:
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].bfs_runs += 1
        distances: Dict[int, int] = {source: 0}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            hops = distances[node]
            if max_hops is not None and hops >= max_hops:
                continue
            for neighbor in self._adj[node]:
                if neighbor not in distances:
                    distances[neighbor] = hops + 1
                    frontier.append(neighbor)
        return distances

    def bfs_tree_parents(self, source: int) -> Dict[int, Optional[int]]:
        """Parent pointers of a BFS tree rooted at ``source``.

        The source maps to ``None``.  Useful for extracting shortest paths.
        """
        if source not in self._adj:
            raise KeyError(f"node {source} not in graph")
        parents: Dict[int, Optional[int]] = {source: None}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            for neighbor in sorted(self._adj[node]):
                if neighbor not in parents:
                    parents[neighbor] = node
                    frontier.append(neighbor)
        return parents

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """A shortest path from ``source`` to ``target`` or ``None``.

        The path includes both endpoints; ``[source]`` when they coincide.
        """
        if target not in self._adj:
            raise KeyError(f"node {target} not in graph")
        parents = self.bfs_tree_parents(source)
        if target not in parents:
            return None
        path = [target]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path

    def eccentricity(self, node: int) -> int:
        """Largest hop distance from ``node`` to any reachable node."""
        return max(self._bfs_distances_cached(node, None).values())

    def diameter(self) -> int:
        """Largest eccentricity over all nodes (graph must be connected)."""
        if not self.is_connected():
            raise ValueError("diameter of a disconnected graph is undefined")
        return max(self.eccentricity(node) for node in self._adj)

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph is connected)."""
        if not self._adj:
            return True
        first = next(iter(self._adj))
        return len(self._bfs_distances_cached(first, None)) == len(self._adj)

    def connected_components(self) -> List[Set[int]]:
        """All connected components as node sets (mask flood-fill)."""
        index, masks = self.adjacency_masks()
        remaining = index.universe()
        components: List[Set[int]] = []
        for node in self._adj:
            bit = index.bit(node)
            if not remaining & bit:
                continue
            component = flood_fill(bit, remaining, masks)
            remaining &= ~component
            components.append(set(index.members(component)))
        return components

    def is_connected_subset(self, subset: Iterable[int]) -> bool:
        """Whether ``subset`` induces a connected subgraph.

        The empty set and singletons count as connected.  One mask
        flood-fill restricted to the subset.
        """
        members = set(subset)
        missing = members - set(self._adj)
        if missing:
            raise KeyError(f"nodes not in graph: {sorted(missing)}")
        if len(members) <= 1:
            return True
        index, masks = self.adjacency_masks()
        subset_mask = index.mask_of(members)
        seed = subset_mask & -subset_mask
        return flood_fill(seed, subset_mask, masks) == subset_mask

    def articulation_points(self) -> Set[int]:
        """All cut vertices (nodes whose removal disconnects a component).

        Iterative Tarjan low-link computation.  Articulation points are
        the nodes no broadcast protocol can ever prune: some pair of
        their neighbors has no connecting path avoiding them at all.
        """
        discovery: Dict[int, int] = {}
        low: Dict[int, int] = {}
        parent: Dict[int, Optional[int]] = {}
        points: Set[int] = set()
        counter = 0
        for root in self._adj:
            if root in discovery:
                continue
            parent[root] = None
            root_children = 0
            # Each stack frame: (node, iterator over neighbors).
            stack = [(root, iter(sorted(self._adj[root])))]
            discovery[root] = low[root] = counter
            counter += 1
            while stack:
                node, neighbors = stack[-1]
                advanced = False
                for neighbor in neighbors:
                    if neighbor not in discovery:
                        parent[neighbor] = node
                        if node == root:
                            root_children += 1
                        discovery[neighbor] = low[neighbor] = counter
                        counter += 1
                        stack.append(
                            (neighbor, iter(sorted(self._adj[neighbor])))
                        )
                        advanced = True
                        break
                    if neighbor != parent[node]:
                        low[node] = min(low[node], discovery[neighbor])
                if advanced:
                    continue
                stack.pop()
                if stack:
                    above = stack[-1][0]
                    low[above] = min(low[above], low[node])
                    if above != root and low[node] >= discovery[above]:
                        points.add(above)
            if root_children >= 2:
                points.add(root)
        return points

    def bridges(self) -> Set[Edge]:
        """All bridge edges, each as ``(min, max)``.

        An edge is a bridge when removing it disconnects its endpoints —
        computed by removal-and-reachability (O(E^2), fine at library
        scale; the tests cross-check against networkx).
        """
        result: Set[Edge] = set()
        for u, v in self.edges():
            self.remove_edge(u, v)
            try:
                connected = v in self.bfs_distances(u)
            finally:
                self.add_edge(u, v)
            if not connected:
                result.add((u, v))
        return result

    # ------------------------------------------------------------------
    # k-hop neighborhoods and view graphs (paper Definition 2)
    # ------------------------------------------------------------------

    def k_hop_neighbors(self, node: int, k: int) -> Set[int]:
        """``N_k(node)``: all nodes within ``k`` hops, including ``node``.

        ``N_0(v) = {v}`` and ``N_{k+1}(v) = ∪_{u ∈ N_k(v)} N(u) ∪ N_k(v)``
        — computed as :meth:`k_hop_mask` and materialised.
        """
        index = self.node_index()
        return set(index.members(self.k_hop_mask(node, k)))

    def k_hop_view_graph(self, node: int, k: int) -> "Topology":
        """The maximum subgraph derivable from k-hop information.

        ``G_k(v) = (N_k(v), E_k(v))`` with
        ``E_k(v) = E ∩ (N_{k-1}(v) x N_k(v))``: links between two nodes that
        are both exactly ``k`` hops away from ``v`` are invisible, because
        they were never reported in only ``k`` rounds of "hello" exchanges.

        Memoised per epoch; the returned view graph is shared between
        callers and must be treated as a read-only snapshot.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self._cached(
            ("view_graph", node, k),
            lambda: self._k_hop_view_graph_compute(node, k),
        )

    def _k_hop_view_graph_compute(self, node: int, k: int) -> "Topology":
        distances = self._bfs_distances_cached(node, k)
        index, masks = self.adjacency_masks()
        position = index.position
        members = index.members
        visible = 0
        inner = 0  # nodes strictly inside the outermost ring (< k hops)
        for u, hops_u in distances.items():
            bit = 1 << position(u)
            visible |= bit
            if hops_u < k:
                inner |= bit
        # Outermost-ring nodes only keep their inward edges (Definition 2:
        # links between two exactly-k-hop nodes were never reported).
        adj: Dict[int, Set[int]] = {}
        for u, hops_u in distances.items():
            row = masks[position(u)] & (visible if hops_u < k else inner)
            adj[u] = set(members(row))
        return Topology._from_adjacency(adj)

    def subgraph(self, nodes: Iterable[int]) -> "Topology":
        """The subgraph induced by ``nodes`` (all must be present)."""
        members = set(nodes)
        missing = members - set(self._adj)
        if missing:
            raise KeyError(f"nodes not in graph: {sorted(missing)}")
        index, masks = self.adjacency_masks()
        subset_mask = index.mask_of(members)
        adj: Dict[int, Set[int]] = {}
        for u in members:
            adj[u] = set(index.members(masks[index.position(u)] & subset_mask))
        return Topology._from_adjacency(adj)

    def is_subgraph_of(self, other: "Topology") -> bool:
        """Whether every node and edge of ``self`` also appears in ``other``."""
        for node in self._adj:
            if node not in other:
                return False
        return all(other.has_edge(u, v) for u, v in self.edges())

    # ------------------------------------------------------------------
    # Priority metrics (paper Section 4.4)
    # ------------------------------------------------------------------

    def neighborhood_connectivity_ratio(self, node: int) -> float:
        """``ncr(v)``: the fraction of neighbor pairs *not* directly connected.

        ``ncr(v) = 1 - Σ_{u ∈ N(v)} |N(u) ∩ N(v)| / (deg(v) (deg(v) - 1))``.
        A node whose neighbors are all pairwise adjacent has ncr 0 (it is
        useless as a relay); a node whose neighbors are pairwise disconnected
        has ncr 1 (it sits in a critical position).  Degree-0 and degree-1
        nodes have no neighbor pairs; their ncr is defined as 0.0.
        """
        if node not in self._adj:
            raise KeyError(f"node {node} not in graph")
        index, masks = self.adjacency_masks()
        nbrs_mask = masks[index.position(node)]
        deg = popcount(nbrs_mask)
        if deg < 2:
            return 0.0
        connected_pairs = 0
        remaining = nbrs_mask
        while remaining:
            low = remaining & -remaining
            connected_pairs += popcount(masks[low.bit_length() - 1] & nbrs_mask)
            remaining ^= low
        return 1.0 - connected_pairs / (deg * (deg - 1))

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_edge_list(edges: Sequence[Edge]) -> "Topology":
        """A graph holding exactly the endpoints of ``edges``."""
        return Topology(edges=edges)

    @staticmethod
    def complete(n: int) -> "Topology":
        """The complete graph ``K_n`` on nodes ``0 .. n - 1``."""
        graph = Topology(nodes=range(n))
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v)
        return graph

    @staticmethod
    def path(n: int) -> "Topology":
        """The path graph ``P_n`` on nodes ``0 .. n - 1``."""
        graph = Topology(nodes=range(n))
        for u in range(n - 1):
            graph.add_edge(u, u + 1)
        return graph

    @staticmethod
    def cycle(n: int) -> "Topology":
        """The cycle ``C_n`` on nodes ``0 .. n - 1`` (n >= 3)."""
        if n < 3:
            raise ValueError(f"a cycle needs at least 3 nodes, got {n}")
        graph = Topology.path(n)
        graph.add_edge(n - 1, 0)
        return graph

    @staticmethod
    def star(n: int) -> "Topology":
        """A star with hub 0 and ``n - 1`` leaves."""
        if n < 1:
            raise ValueError(f"a star needs at least 1 node, got {n}")
        graph = Topology(nodes=range(n))
        for leaf in range(1, n):
            graph.add_edge(0, leaf)
        return graph
