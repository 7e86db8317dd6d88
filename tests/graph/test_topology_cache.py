"""Property tests for the Topology query cache.

The memoisation layer behind ``Topology`` must be observationally
invisible: after any interleaving of mutations and queries, every cached
query must return exactly what a cold, never-mutated rebuild of the same
graph returns.  Hypothesis drives random op sequences; the oracle is a
fresh ``Topology`` reconstructed from the adjacency every time.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.topology import Topology

NODES = st.integers(min_value=0, max_value=9)

#: One mutation step: op name plus operands drawn from a small id space
#: so collisions (duplicate edges, removals of absent nodes) are common.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["add_edge", "remove_edge", "add_node", "remove_node"]),
        NODES,
        NODES,
    ),
    min_size=1,
    max_size=30,
)


def _apply(graph: Topology, op: str, u: int, v: int) -> None:
    """Apply one mutation, ignoring structurally invalid ones."""
    if op == "add_edge" and u != v:
        graph.add_edge(u, v)
    elif op == "remove_edge" and graph.has_edge(u, v):
        graph.remove_edge(u, v)
    elif op == "add_node":
        graph.add_node(u)
    elif op == "remove_node" and u in graph:
        graph.remove_node(u)


def _rebuild(graph: Topology) -> Topology:
    """A cold copy built through the public constructor (empty cache)."""
    return Topology(nodes=graph.nodes(), edges=graph.edges())


def _assert_queries_match(warm: Topology, cold: Topology) -> None:
    assert warm == cold
    assert warm.max_degree() == cold.max_degree()
    for node in cold.nodes():
        assert warm.neighbors(node) == cold.neighbors(node)
        assert warm.degree(node) == cold.degree(node)
        assert warm.bfs_distances(node) == cold.bfs_distances(node)
        assert warm.bfs_distances(node, max_hops=2) == cold.bfs_distances(
            node, max_hops=2
        )
        assert warm.k_hop_neighbors(node, 2) == cold.k_hop_neighbors(node, 2)
        assert warm.k_hop_view_graph(node, 2) == cold.k_hop_view_graph(node, 2)


class TestCacheInvisibility:
    @settings(deadline=None, max_examples=60)
    @given(ops=OPS)
    def test_cached_queries_equal_cold_rebuild(self, ops):
        """Interleave mutations with queries; the cache must never go stale."""
        warm = Topology()
        for op, u, v in ops:
            _apply(warm, op, u, v)
            # Query *between* mutations so the cache is populated and must
            # be invalidated by the next mutation to stay correct.
            _assert_queries_match(warm, _rebuild(warm))

    @settings(deadline=None, max_examples=30)
    @given(ops=OPS)
    def test_repeated_queries_are_stable(self, ops):
        """Two consecutive identical queries return equal results."""
        warm = Topology()
        for op, u, v in ops:
            _apply(warm, op, u, v)
        for node in warm.nodes():
            assert warm.bfs_distances(node) == warm.bfs_distances(node)
            assert warm.k_hop_view_graph(node, 2) == warm.k_hop_view_graph(
                node, 2
            )
            assert warm.neighbors(node) == warm.neighbors(node)


class TestCacheSemantics:
    def test_bfs_result_is_caller_owned(self):
        """Mutating a returned distance map must not poison the cache."""
        graph = Topology.path(4)
        first = graph.bfs_distances(0)
        first[99] = 99
        assert 99 not in graph.bfs_distances(0)

    def test_duplicate_add_edge_keeps_cache(self):
        graph = Topology.path(4)
        graph.bfs_distances(0)
        version = graph.version_stamp()
        graph.add_edge(0, 1)  # already present: no structural change
        graph.add_node(2)  # already present
        assert graph.version_stamp() == version
        assert list(graph._query_cache) == [("bfs", 0)]

    def test_view_graph_is_its_only_cache_entry(self):
        """The view's truncated BFS is not memoised beside it: the
        view's node index already holds the BFS order."""
        graph = Topology.path(6)
        view = graph.k_hop_view_graph(2, 2)
        assert list(graph._query_cache) == [("view_graph", 2, 2)]
        assert view.node_index().nodes == (2, 1, 3, 0, 4)

    def test_mutation_invalidates_view_graph(self):
        graph = Topology.path(5)
        before = graph.k_hop_view_graph(0, 2)
        graph.add_edge(0, 4)
        after = graph.k_hop_view_graph(0, 2)
        assert before != after
        assert after.has_edge(0, 4)

    def test_remove_node_invalidates(self):
        graph = Topology.cycle(5)
        assert len(graph.bfs_distances(0)) == 5
        graph.remove_node(2)
        distances = graph.bfs_distances(0)
        assert 2 not in distances
        assert distances[3] == 2  # the long way round, via 4

    def test_copy_does_not_share_cache(self):
        graph = Topology.path(4)
        graph.bfs_distances(0)
        clone = graph.copy()
        clone.add_edge(0, 3)
        assert clone.bfs_distances(0)[3] == 1
        assert graph.bfs_distances(0)[3] == 3
