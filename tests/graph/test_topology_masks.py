"""Unit tests for the node-indexed bitmask layer of :class:`Topology`.

The masks are the data structure behind the bitset coverage kernel:
``NodeIndex`` assigns stable bit positions, ``adjacency_masks`` caches one
big-int row per node, and ``flood_fill`` grows components word-parallel.
Everything here is checked against straightforward set-based oracles.
"""

import random

import pytest

from repro.graph.generators import (
    random_connected_network,
    random_grid_network,
)
from repro.graph.nodeindex import NodeIndex, flood_fill, popcount
from repro.graph.topology import Topology
from repro.instrument import collecting


def _random_graph(seed: int, n: int = 24, extra: int = 18) -> Topology:
    rng = random.Random(seed)
    graph = Topology(nodes=range(n))
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        graph.add_edge(order[i], rng.choice(order[:i]))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    return graph


class TestNodeIndex:
    def test_roundtrip_positions(self):
        index = NodeIndex([7, 3, 11])
        assert len(index) == 3
        for position, node in enumerate([7, 3, 11]):
            assert index.position(node) == position
            assert index.node_at(position) == node
            assert index.bit(node) == 1 << position

    def test_mask_of_and_members(self):
        index = NodeIndex([5, 9, 2, 4])
        mask = index.mask_of([4, 5])
        assert popcount(mask) == 2
        assert set(index.members(mask)) == {4, 5}
        assert index.mask_of([]) == 0
        assert index.universe() == (1 << 4) - 1

    def test_members_follow_bit_order(self):
        index = NodeIndex([9, 1, 6])
        assert list(index.members(index.universe())) == [9, 1, 6]

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            NodeIndex([1, 2, 1])

    def test_unknown_node_raises(self):
        index = NodeIndex([1, 2])
        with pytest.raises(KeyError):
            index.position(3)
        with pytest.raises(KeyError):
            index.mask_of([1, 3])

    def test_contains(self):
        index = NodeIndex([1, 2])
        assert 1 in index and 3 not in index


class TestAdjacencyMasks:
    def test_masks_match_neighbor_sets(self):
        graph = _random_graph(1)
        index, masks = graph.adjacency_masks()
        for node in graph.nodes():
            row = masks[index.position(node)]
            assert set(index.members(row)) == set(graph.neighbors(node))

    def test_masks_symmetric_and_irreflexive(self):
        graph = _random_graph(2)
        index, masks = graph.adjacency_masks()
        for u in graph.nodes():
            row = masks[index.position(u)]
            assert row & index.bit(u) == 0
            for v in index.members(row):
                assert masks[index.position(v)] & index.bit(u)

    def test_adjacency_mask_unknown_node(self):
        graph = Topology(edges=[(1, 2)])
        with pytest.raises(KeyError):
            graph.adjacency_mask(99)

    def test_epoch_invalidation_on_mutation(self):
        graph = Topology(edges=[(1, 2), (2, 3)])
        index, masks = graph.adjacency_masks()
        assert masks[index.position(1)] == index.bit(2)
        graph.add_edge(1, 3)
        index2, masks2 = graph.adjacency_masks()
        assert masks2[index2.position(1)] == index2.mask_of([2, 3])
        graph.remove_edge(1, 2)
        index3, masks3 = graph.adjacency_masks()
        assert masks3[index3.position(1)] == index3.bit(3)

    def test_cached_until_mutation(self):
        graph = _random_graph(3)
        first = graph.adjacency_masks()
        assert graph.adjacency_masks() is first
        graph.add_node(999)
        assert graph.adjacency_masks() is not first


class TestKHopMasks:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_k_hop_mask_matches_bfs(self, seed, k):
        graph = _random_graph(seed)
        index = graph.node_index()
        for node in graph.nodes():
            expected = _bfs_within(graph, node, k)
            assert set(index.members(graph.k_hop_mask(node, k))) == expected

    def test_zero_hops_is_self(self):
        graph = _random_graph(4)
        index = graph.node_index()
        assert graph.k_hop_mask(5, 0) == index.bit(5)


def _bfs_within(graph, source, k):
    distances = {source: 0}
    frontier = [source]
    for hop in range(1, k + 1):
        nxt = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = hop
                    nxt.append(neighbor)
        frontier = nxt
    return set(distances)


class TestFloodFill:
    def test_grows_full_component(self):
        graph = Topology(edges=[(1, 2), (2, 3), (4, 5)])
        index, masks = graph.adjacency_masks()
        component = flood_fill(index.bit(1), index.universe(), masks)
        assert set(index.members(component)) == {1, 2, 3}

    def test_respects_allowed_mask(self):
        graph = Topology(edges=[(1, 2), (2, 3), (3, 4)])
        index, masks = graph.adjacency_masks()
        allowed = index.mask_of([1, 2, 4])
        component = flood_fill(index.bit(1), allowed, masks)
        assert set(index.members(component)) == {1, 2}

    def test_seed_kept_even_outside_allowed(self):
        graph = Topology(edges=[(1, 2)])
        index, masks = graph.adjacency_masks()
        component = flood_fill(index.bit(1), 0, masks)
        assert set(index.members(component)) == {1}


class TestMaskBackedQueries:
    @pytest.mark.parametrize("seed", range(8))
    def test_connected_components_oracle(self, seed):
        rng = random.Random(seed)
        graph = Topology(nodes=range(20))
        for _ in range(14):
            u, v = rng.sample(range(20), 2)
            graph.add_edge(u, v)
        components = graph.connected_components()
        assert {n for c in components for n in c} == set(graph.nodes())
        for component in components:
            assert graph.is_connected_subset(component)
        # Distinct components share no edges.
        for i, a in enumerate(components):
            for b in components[i + 1:]:
                assert not a & b
                assert not any(
                    graph.has_edge(u, v) for u in a for v in b
                )

    @pytest.mark.parametrize("seed", range(8))
    def test_subgraph_oracle(self, seed):
        graph = _random_graph(seed)
        rng = random.Random(seed + 100)
        subset = set(rng.sample(graph.nodes(), 10))
        sub = graph.subgraph(subset)
        assert set(sub.nodes()) == subset
        for u in subset:
            assert set(sub.neighbors(u)) == (
                set(graph.neighbors(u)) & subset
            )

    def test_is_connected_subset_disconnected(self):
        graph = Topology(edges=[(1, 2), (3, 4)])
        assert graph.is_connected_subset({1, 2})
        assert not graph.is_connected_subset({1, 3})
        assert graph.is_connected_subset(set())

    @pytest.mark.parametrize("seed", range(5))
    def test_k_hop_neighbors_matches_mask(self, seed):
        net = random_connected_network(40, 6.0, random.Random(seed))
        graph = net.topology
        for node in graph.nodes()[:10]:
            assert graph.k_hop_neighbors(node, 2) == _bfs_within(
                graph, node, 2
            )


# ----------------------------------------------------------------------
# Mask-built view graphs (k_hop_view_graph / subgraph)
# ----------------------------------------------------------------------


def _deployment(family: str, seed: int) -> Topology:
    rng = random.Random(seed)
    if family == "udg":
        return random_connected_network(30, 6.0, rng).topology
    return random_grid_network(7, 0.6, rng).topology


def _reference_view(graph: Topology, center: int, k: int) -> Topology:
    """Definition 2 by brute force, as a dict-built graph whose node
    order is the BFS order the mask-built view indexes by."""
    hops = graph.bfs_distances(center, k)
    reference = Topology(nodes=hops)
    for u, v in graph.edges():
        if u in hops and v in hops and min(hops[u], hops[v]) < k:
            reference.add_edge(u, v)
    return reference


def _decoded(view: Topology) -> bool:
    return "_adj" in vars(view)


VIEW_CASES = [
    (family, seed, k)
    for family in ("udg", "grid")
    for seed in range(4)
    for k in (0, 1, 2, 3)
]


class TestMaskBuiltViews:
    @pytest.mark.parametrize("family, seed, k", VIEW_CASES)
    def test_view_matches_definition2_reference(self, family, seed, k):
        graph = _deployment(family, seed)
        for center in graph.nodes()[::5]:
            view = graph.k_hop_view_graph(center, k)
            reference = _reference_view(graph, center, k)
            assert view.node_index().nodes == tuple(
                graph.bfs_distances(center, k)
            )
            index, rows = view.adjacency_masks()
            ref_index, ref_rows = reference.adjacency_masks()
            assert index.nodes == ref_index.nodes
            assert rows == ref_rows
            # Mask-backed reads answer without decoding the adjacency.
            outside = max(graph.nodes()) + 1
            for u in reference.nodes():
                assert u in view
                assert view.neighbors(u) == reference.neighbors(u)
                assert view.degree(u) == reference.degree(u)
                for w in reference.nodes():
                    assert view.has_edge(u, w) == reference.has_edge(u, w)
                for radius in (0, 1, 2):
                    assert view.k_hop_mask(u, radius) == (
                        reference.k_hop_mask(u, radius)
                    )
            assert outside not in view
            assert not view.has_edge(center, outside)
            assert list(view) == view.nodes() == reference.nodes()
            assert len(view) == view.node_count() == reference.node_count()
            with pytest.raises(KeyError):
                view.neighbors(outside)
            with pytest.raises(KeyError):
                view.degree(outside)
            with pytest.raises(KeyError):
                view.k_hop_mask(outside, 1)
            assert not _decoded(view)
            # Walking the view as a graph decodes it; the decoded
            # adjacency is the brute-force edge set.
            assert set(view.edges()) == set(reference.edges())
            assert _decoded(view)
            assert view == reference

    @pytest.mark.parametrize("family", ("udg", "grid"))
    def test_extraction_builds_no_mask_table(self, family):
        graph = _deployment(family, 7)
        graph.adjacency_masks()
        with collecting() as counters:
            for center in graph.nodes():
                view = graph.k_hop_view_graph(center, 2)
                assert view.adjacency_masks()[0] is view.node_index()
        assert counters.mask_table_builds == 0

    def test_retained_view_survives_delta_and_evicted_view_rebuilds(self):
        graph = Topology.path(12)
        near = graph.k_hop_view_graph(1, 2)
        far = graph.k_hop_view_graph(10, 2)
        far_rows = far.adjacency_masks()
        report = graph.apply_delta(added_edges=[(0, 3)])
        assert 1 in report.dirty_at(2) and 10 not in report.dirty_at(2)
        assert graph.k_hop_view_graph(10, 2) is far
        assert far.adjacency_masks() is far_rows
        assert not _decoded(far)
        rebuilt = graph.k_hop_view_graph(1, 2)
        assert rebuilt is not near
        index, rows = rebuilt.adjacency_masks()
        ref_index, ref_rows = _reference_view(graph, 1, 2).adjacency_masks()
        assert (index.nodes, rows) == (ref_index.nodes, ref_rows)
        assert rebuilt.has_edge(0, 3) and not near.has_edge(0, 3)

    def test_mutating_a_view_falls_back_to_its_adjacency(self):
        view = Topology.path(6).copy().k_hop_view_graph(2, 2)
        view.add_edge(0, 4)
        assert view.has_edge(0, 4) and view.degree(0) == 2
        assert view.neighbors(4) == frozenset({3, 0})
        index, rows = view.adjacency_masks()
        assert rows[index.position(4)] == index.mask_of([0, 3])
        view.remove_node(0)
        assert 0 not in view and len(view) == 4
        other = Topology.path(6).k_hop_view_graph(2, 2).copy()
        view = Topology.path(6).k_hop_view_graph(2, 2)
        assert view.apply_delta(added_edges=[(0, 4)]).dirty_by_radius == {}
        other.add_edge(0, 4)
        assert view.has_edge(0, 4) and view.degree(4) == 2
        assert view.neighbors(0) == frozenset({1, 4})
        assert view == other

    @pytest.mark.parametrize("seed", range(4))
    def test_subgraph_is_mask_built(self, seed):
        graph = _random_graph(seed)
        subset = set(random.Random(seed).sample(graph.nodes(), 12))
        sub = graph.subgraph(subset)
        assert sub.node_index().nodes == tuple(subset)
        reference = Topology(nodes=subset)
        for u, v in graph.edges():
            if u in subset and v in subset:
                reference.add_edge(u, v)
        assert sub.adjacency_masks()[1] == reference.adjacency_masks()[1]
        assert not _decoded(sub)
        assert sub.subgraph(list(subset)[:6]) == reference.subgraph(
            list(subset)[:6]
        )
