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

Traversal results (:meth:`Topology.k_hop_view_graph`,
:meth:`Topology.neighbors`, the untruncated BFS behind
:meth:`Topology.is_connected` and :meth:`Topology.eccentricity`, and the
degree aggregates) are memoised in one query cache: every structural
change (``add_edge``, ``remove_edge``, ``add_node`` of a new node,
``remove_node``) advances :meth:`Topology.version_stamp` and clears the
cache, so incremental edits stay correct while repeated queries on a
static deployment — the experiment hot path — are free after the first
computation.  :meth:`Topology.apply_delta` flips links among the
existing nodes and evicts only the entries within reach of the flipped
endpoints (paper Definition 2), so a mobility step keeps every view
graph outside its dirty ball.

The subset-algebra kernels (k-hop frontiers, connected components,
priority metrics) run on the node-indexed bitmask layer of
:mod:`repro.graph.nodeindex`: :meth:`Topology.node_index` pins a stable
node → bit-position mapping and :meth:`Topology.adjacency_masks` caches
one ``int`` neighbor mask per node, both invalidated with every other
memoised query.  Derived graphs — k-hop view graphs
and induced subgraphs — are *mask-built*: they are born as their own
``(index, rows)`` table (:meth:`Topology._from_rows`), the membership,
neighbor and degree queries answer from it, and the adjacency dict is
decoded only if a caller walks the graph (edges, BFS, equality) or
mutates it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
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

    ``dirty_by_radius`` maps each radius the delta considered (every
    radius with cached queries, plus the caller's ``extra_radii``) to its
    dirty ball.
    """

    dirty_by_radius: Mapping[int, FrozenSet[int]]

    def dirty_at(self, radius: int) -> FrozenSet[int]:
        """The dirty set at ``radius`` — nodes whose radius-``radius``
        queries (k-hop masks, view graphs) may have changed.

        The radius must have been considered by the delta (it was either
        present in the query cache or requested through ``extra_radii``);
        asking for an uncomputed radius raises ``KeyError`` rather than
        guessing.
        """
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
        #: ``(index, rows)`` of a mask-built graph (:meth:`_from_rows`)
        #: until its first mutation; the read accessors answer from it
        #: without decoding :attr:`_adj`.  ``None`` on every other graph.
        self._rows: Optional[Tuple[NodeIndex, Tuple[int, ...]]] = None
        #: Memoised queries of the current version (see :meth:`_cached`).
        self._query_cache: Dict[Tuple, object] = {}
        #: Monotone version stamp: bumped by every structural change,
        #: :meth:`apply_delta` included.  External caches record
        #: :meth:`version_stamp` and drop their entries when it moves.
        self._version: int = 0
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _bump_epoch(self) -> None:
        """Record a wholesale structural change: advance the version
        stamp and clear every memoised query."""
        self._version += 1
        self._rows = None
        self._query_cache.clear()

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
    def _from_rows(
        cls, index: NodeIndex, rows: Tuple[int, ...]
    ) -> "Topology":
        """A graph given as its own ``(index, rows)`` mask table.

        ``rows[p]`` is the neighbor mask of ``index.node_at(p)`` under
        ``index``; the table must be symmetric and self-loop-free.  It is
        the new graph's :meth:`node_index` and :meth:`adjacency_masks`,
        so the kernels read it as is, and the adjacency dict is decoded
        only if a caller walks the graph (:attr:`_adj`).  The
        derived-graph constructor behind :meth:`k_hop_view_graph` and
        :meth:`subgraph`.
        """
        graph = cls.__new__(cls)  # no __init__: _adj stays undecoded
        graph._adopt_rows(index, rows)
        return graph

    def _adopt_rows(self, index: NodeIndex, rows: Tuple[int, ...]) -> None:
        self._rows = (index, rows)
        self._query_cache = {}
        self._version = 0

    @cached_property
    def _adj(self) -> Dict[int, Set[int]]:
        """The adjacency dict of a :meth:`_from_rows` graph, decoded from
        its rows on first access (every other graph sets it in
        ``__init__``).  Node order is the index's bit order."""
        index, rows = self._rows  # type: ignore[misc]
        members = index.members
        return {node: set(members(row)) for node, row in zip(index, rows)}

    # ------------------------------------------------------------------
    # Query memoisation
    # ------------------------------------------------------------------

    def _cached(self, key: Tuple, compute):
        """Return ``compute()`` memoised under ``key`` for the current
        version (mutators clear the cache, :meth:`apply_delta` evicts
        the dirty entries)."""
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
        """A monotone stamp advanced by every structural change,
        :meth:`apply_delta` included.  External caches record it and
        drop their entries when it moves."""
        return self._version

    def _dirty_ball(self, seeds: Iterable[int], radius: int) -> Set[int]:
        """All nodes within ``radius`` hops of any seed, on the current
        adjacency."""
        seen = set(seeds)
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

        Only endpoint rows can change under an edge delta, and the node
        set is unchanged, so the :class:`NodeIndex` itself is reused
        verbatim — masks built before and after the delta stay
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
        extra_radii: Iterable[int] = (),
    ) -> DeltaReport:
        """Flip links among the existing nodes, evicting only dirty
        cache entries.

        The locality argument (paper Definition 2): a cached radius-``r``
        query for ``v`` — k-hop mask, view graph — can only change if
        some changed-edge endpoint lies within ``r`` hops of ``v`` in the
        old *or* new graph, because a path of length ``<= r`` from ``v``
        through a changed edge reaches one of its endpoints in ``< r``
        hops, and an edge whose endpoints are both on the exactly-``r``
        ring is invisible in ``G_r(v)`` anyway.  So the delta computes,
        per radius present in the query cache (plus any ``extra_radii``
        the caller's own caches care about), the dirty ball around the
        changed endpoints on the old and the new adjacency, evicts
        exactly those entries, and patches the endpoints'
        :meth:`adjacency_masks` rows in place under the stable
        :class:`~repro.graph.nodeindex.NodeIndex`.

        Deltas are validated before anything mutates: every endpoint
        must be a node of the graph, removed edges must exist, added
        edges must be absent, and no edge may be both added and removed.
        """
        adds = list(dict.fromkeys(self._normalised(added_edges)))
        drops = list(dict.fromkeys(self._normalised(removed_edges)))
        radii = sorted(dict.fromkeys(extra_radii))
        for radius in radii:
            if radius < 0:
                raise ValueError(f"radii must be non-negative, got {radius}")
        self._validate_delta(adds, drops)
        if not adds and not drops:
            # Nothing changed: no version bump, nothing to evict.
            if _COUNTER_STACK:
                counters = _COUNTER_STACK[-1]
                counters.delta_applies += 1
                counters.cache_entries_retained += len(self._query_cache)
            return DeltaReport({radius: frozenset() for radius in radii})
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

    def _validate_delta(self, adds: List[Edge], drops: List[Edge]) -> None:
        overlap = set(adds) & set(drops)
        if overlap:
            raise ValueError(
                f"edges both added and removed: {sorted(overlap)}"
            )
        for u, v in drops:
            if not self.has_edge(u, v):
                raise KeyError(f"edge ({u}, {v}) not in graph")
        for u, v in adds:
            for node in (u, v):
                if node not in self:
                    raise KeyError(f"node {node} not in graph")
            if self.has_edge(u, v):
                raise ValueError(f"edge ({u}, {v}) already in graph")

    def _apply_delta_fast(
        self,
        adds: List[Edge],
        drops: List[Edge],
        extra_radii: List[int],
    ) -> DeltaReport:
        endpoints = sorted({node for edge in adds + drops for node in edge})
        endpoint_set = set(endpoints)
        rows = self._rows

        # Every radius with cached entries must get a dirty ball, plus
        # any radius the caller's own caches are keyed on.
        radii = set(extra_radii)
        for key in self._query_cache:
            if key[0] in ("k_hop_mask", "view_graph"):
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
        self._rows = None
        for radius in radii:
            dirty[radius] |= self._dirty_ball(endpoints, radius)

        keep: Dict[Tuple, object] = {}
        for key, value in self._query_cache.items():
            tag = key[0]
            if tag == "node_index":
                keep[key] = value
            elif tag == "mask_table":
                keep[key] = self._patched_mask_table(value, endpoints)  # type: ignore[arg-type]
            elif tag == "neighbors":
                if key[1] not in endpoint_set:
                    keep[key] = value
            elif tag in ("k_hop_mask", "view_graph"):
                if key[1] not in dirty[key[2]]:
                    keep[key] = value
            # Untruncated BFS, max_degree and any future aggregate are
            # evicted: they are global, not local to a dirty ball.
        if rows is not None:
            # A mask-built graph's table moves into the cache, patched.
            keep[("node_index",)] = rows[0]
            keep[("mask_table",)] = self._patched_mask_table(rows, endpoints)
        self._query_cache = keep
        self._version += 1

        if _COUNTER_STACK:
            counters = _COUNTER_STACK[-1]
            counters.delta_applies += 1
            counters.dirty_nodes_invalidated += len(
                endpoint_set.union(*dirty.values())
            )
            counters.cache_entries_retained += len(keep)
        return DeltaReport(
            {radius: frozenset(dirty[radius]) for radius in sorted(radii)}
        )

    # ------------------------------------------------------------------
    # Node-indexed bitmask layer
    # ------------------------------------------------------------------

    def node_index(self) -> NodeIndex:
        """The node-id → bit-position mapping of the current node set.

        Positions follow node insertion order.  The index (like every
        mask built against it) is memoised: a change to the node set
        produces a fresh index, so stale masks can never be combined
        with fresh ones through this accessor, and an edge delta keeps
        it (the node set is unchanged).
        """
        rows = self._rows
        if rows is not None:
            return rows[0]
        return self._cached(("node_index",), lambda: NodeIndex(self._adj))

    def adjacency_masks(self) -> Tuple[NodeIndex, Tuple[int, ...]]:
        """``(index, masks)``: the per-node adjacency bitmask table.

        ``masks[index.position(v)]`` is the neighbor mask ``N(v)``.  The
        table is memoised per version and shared between callers — treat
        it as a read-only snapshot.  A mask-built graph answers with its
        own table until its first mutation.
        """
        rows = self._rows
        if rows is not None:
            return rows
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
        if node not in self:
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
        rows = self._rows
        return node in (self._adj if rows is None else rows[0])

    def __len__(self) -> int:
        rows = self._rows
        return len(self._adj if rows is None else rows[0])

    def __iter__(self) -> Iterator[int]:
        rows = self._rows
        return iter(self._adj if rows is None else rows[0])

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
        return list(self)

    def node_count(self) -> int:
        """Number of nodes."""
        return len(self)

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
        if self._rows is None:
            return v in self._adj.get(u, ())
        index, rows = self._rows
        if u not in index or v not in index:
            return False
        return bool(rows[index.position(u)] & index.bit(v))

    def neighbors(self, node: int) -> FrozenSet[int]:
        """The open neighbor set ``N(node)`` (memoised per version)."""
        if node not in self:
            raise KeyError(f"node {node} not in graph")
        return self._cached(
            ("neighbors", node), lambda: frozenset(self._neighbor_ids(node))
        )

    def _neighbor_ids(self, node: int) -> Iterable[int]:
        """``N(node)``: the adjacency set, or the decoded row of a
        mask-built graph."""
        if self._rows is None:
            return self._adj[node]
        index, rows = self._rows
        return index.members(rows[index.position(node)])

    def closed_neighbors(self, node: int) -> FrozenSet[int]:
        """The closed neighbor set ``N[node] = N(node) ∪ {node}``."""
        return self.neighbors(node) | {node}

    def degree(self, node: int) -> int:
        """``deg(node) = |N(node)|``."""
        try:
            if self._rows is None:
                return len(self._adj[node])
            index, rows = self._rows
            return popcount(rows[index.position(node)])
        except KeyError as exc:
            raise KeyError(f"node {node} not in graph") from exc

    def average_degree(self) -> float:
        """Mean degree; 0.0 on an empty graph."""
        if not self._adj:
            return 0.0
        return 2.0 * self.edge_count() / self.node_count()

    def max_degree(self) -> int:
        """Largest degree; 0 on an empty graph (memoised per version)."""
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

        With ``max_hops`` the search is truncated at that radius.  The
        untruncated search is memoised per version (it backs
        :meth:`is_connected` and :meth:`eccentricity`); the returned dict
        is a private copy the caller may mutate either way.
        """
        if max_hops is not None:
            return self._bfs_distances_compute(source, max_hops)
        return dict(self._bfs_distances_cached(source))

    def _bfs_distances_cached(self, source: int) -> Dict[int, int]:
        """The shared memoised untruncated BFS — callers must not mutate
        it."""
        return self._cached(
            ("bfs", source), lambda: self._bfs_distances_compute(source, None)
        )

    def _bfs_distances_compute(
        self, source: int, max_hops: Optional[int]
    ) -> Dict[int, int]:
        if source not in self._adj:
            raise KeyError(f"node {source} not in graph")
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
        return max(self._bfs_distances_cached(node).values())

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
        return len(self._bfs_distances_cached(first)) == len(self._adj)

    def connected_components(self) -> List[Set[int]]:
        """All connected components as node sets (mask flood-fill)."""
        index, masks = self.adjacency_masks()
        remaining = index.universe()
        components: List[Set[int]] = []
        for node in index:
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
        missing = [node for node in members if node not in self]
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

        Built by one ring-by-ring BFS as a mask-built graph
        (:meth:`_from_rows`): the BFS's position dict becomes the view's
        index, in the order ``tuple(bfs_distances(v, k))``, and each row is
        the parent row ``N(u)`` restricted to ``N_k(v)`` — to
        ``N_{k-1}(v)`` when ``u`` lies on the outermost ring — in view
        positions.  The view's :meth:`adjacency_masks` is that table, so
        the coverage kernel never decodes or re-encodes it.

        The view graph is this topology's one query-cache entry for
        ``(v, k)`` until a change within reach evicts it; it is shared
        between callers and must be treated as a read-only snapshot.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return self._cached(
            ("view_graph", node, k),
            lambda: self._k_hop_view_graph_compute(node, k),
        )

    def _k_hop_view_graph_compute(self, node: int, k: int) -> "Topology":
        if node not in self._adj:
            raise KeyError(f"node {node} not in graph")
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].bfs_runs += 1
        adj = self._adj
        # One ring-by-ring BFS; ``positions`` (insertion order) is the
        # view's index, and each expanded node's row is written as its
        # neighbours are scanned.  The last round's finds form the
        # outermost ring, never expanded: their rows get only the inward
        # links, as the expanded nodes meet them (Definition 2: links
        # between two exactly-k-hop nodes were never reported).
        positions = {node: 0}
        rows = [0]
        ring = [node]
        for depth in range(k):
            last = depth == k - 1
            found = len(rows)
            grown: List[int] = []
            for u in ring:
                p = positions[u]
                inward = 1 << p if last else 0
                row = 0
                for w in adj[u]:
                    q = positions.get(w)
                    if q is None:
                        q = positions[w] = len(rows)
                        rows.append(inward)
                        grown.append(w)
                    elif q >= found:
                        rows[q] |= inward
                    row |= 1 << q
                rows[p] = row
            if not grown:
                break
            ring = grown
        return Topology._from_rows(NodeIndex.adopt(positions), tuple(rows))

    def subgraph(self, nodes: Iterable[int]) -> "Topology":
        """The subgraph induced by ``nodes`` (all must be present), as a
        mask-built graph whose index follows ``set(nodes)`` order."""
        members = set(nodes)
        missing = [node for node in members if node not in self]
        if missing:
            raise KeyError(f"nodes not in graph: {sorted(missing)}")
        positions = {u: position for position, u in enumerate(members)}
        rows: List[int] = []
        for u in members:
            row = 0
            for w in members.intersection(self._neighbor_ids(u)):
                row |= 1 << positions[w]
            rows.append(row)
        return Topology._from_rows(NodeIndex.adopt(positions), tuple(rows))

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
        if node not in self:
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
