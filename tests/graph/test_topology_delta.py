"""Delta-applied topologies vs rebuilt-from-scratch oracles.

50-seed property suite for the incremental delta engine: after every
mobility step applied through ``Topology.apply_delta`` (with warm caches,
so retention actually happens), the shared mutable topology must be
indistinguishable from a unit-disk graph rebuilt from scratch at the same
positions — adjacency, node-index order, mask tables, k-hop view graphs,
and the forward sets the generic scheme derives from them, byte-identical
on the coverage kernel and on the reference predicates.

Every step comes from a recorded flip trace replayed through
``FlipTrace.replay`` and is checked against an equally seeded model,
advanced in lockstep and rebuilt with ``build_unit_disk_graph``.

Plus directed unit tests for the machinery itself: dirty balls, empty
deltas, validation atomicity, the version stamp, the replay's one shared
topology, and the instrumentation counters.
"""

import random

import pytest

from repro.check.reference import mobility_sweep_by_rebuild
from repro.core import coverage
from repro.core.priority import DegreePriority, IdPriority, NcrPriority
from repro.core.views import local_view
from repro.experiments.runner import run_trace_sweep
from repro.graph.fliptrace import record_flip_trace
from repro.graph.geometry import Area, random_points
from repro.graph.mobility import RandomWaypointModel
from repro.graph.topology import Topology
from repro.graph.unit_disk import build_unit_disk_graph
from repro.instrument import collecting
from repro.sim.energy import EnergyAwarePriority

SEEDS = range(50)
BACKENDS = ("bitset", "sets")


def _model(seed: int, n: int = 14, speed: float = 3.0) -> RandomWaypointModel:
    rng = random.Random(seed)
    positions = random_points(n, Area(60, 60), rng)
    return RandomWaypointModel(
        initial_positions=positions,
        radius=22.0,
        rng=rng,
        area=Area(60, 60),
        min_speed=speed / 2,
        max_speed=speed,
    )


def _replay_in_lockstep(seed: int, steps: int, dt: float, **kwargs):
    """Yield ``(delta, expected)`` per step: the replayed step of
    ``_model(seed)``'s recorded trace, and the topology rebuilt from an
    equally seeded model advanced in lockstep.

    Lockstep on purpose: the replay shares one *mutable* topology, so
    materialising the whole stream first would show every step at the
    final adjacency.
    """
    trace = record_flip_trace(_model(seed, **kwargs), steps, dt)
    twin = _model(seed, **kwargs)
    for delta in trace.replay(extra_radii=(2,)):
        twin.advance(dt)
        yield delta, build_unit_disk_graph(twin.positions(), twin.radius).topology


def _energy_priority() -> EnergyAwarePriority:
    """A scheme that leaves ``metric_locality`` as ``None``."""
    return EnergyAwarePriority({node: 1.0 + (7 * node) % 11 for node in range(14)})


def _warm(graph: Topology, k: int = 2) -> None:
    """Populate every cache family the delta layer patches or evicts."""
    graph.adjacency_masks()
    graph.max_degree()
    for node in graph.nodes():
        graph.neighbors(node)
        graph.k_hop_mask(node, k)
        graph.k_hop_view_graph(node, k)
        graph.bfs_distances(node, max_hops=k)


def _forward_set(graph: Topology, scheme, k: int = 2):
    # Looked up on the module, so ``substituted()`` reaches it.
    metrics = scheme.metrics(graph)
    return tuple(sorted(
        node
        for node in graph.nodes()
        if not coverage.coverage_condition(
            local_view(graph, node, k, scheme, metrics=metrics), node
        )
    ))


# ----------------------------------------------------------------------
# 50-seed properties: delta-applied == rebuilt-from-scratch
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_delta_applied_matches_rebuilt(seed):
    flips = 0
    for snap, expected in _replay_in_lockstep(seed, steps=6, dt=1.0):
        live = snap.topology
        assert sorted(live.nodes()) == sorted(expected.nodes())
        assert sorted(live.edges()) == sorted(expected.edges())
        live_index, live_masks = live.adjacency_masks()
        want_index, want_masks = expected.adjacency_masks()
        assert live_index.nodes == want_index.nodes
        assert live_masks == want_masks
        for node in live.nodes():
            got = live.k_hop_view_graph(node, 2)
            want = expected.k_hop_view_graph(node, 2)
            assert sorted(got.nodes()) == sorted(want.nodes())
            assert sorted(got.edges()) == sorted(want.edges())
            assert live.bfs_distances(node, max_hops=2) == (
                expected.bfs_distances(node, max_hops=2)
            )
        flips += len(snap.added_edges) + len(snap.removed_edges)
        # Refill the caches so the *next* delta exercises patch/evict
        # against a fully warm table, not a cold one.
        _warm(live)
    assert flips > 0, "fixture produced no link flips; property is vacuous"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_forward_sets_byte_identical(seed, backend, on_backend):
    scheme = DegreePriority()
    for snap, expected in _replay_in_lockstep(seed, steps=4, dt=1.5):
        live = snap.topology
        with on_backend(backend):
            assert _forward_set(live, scheme) == _forward_set(expected, scheme)
        _warm(live)


@pytest.mark.parametrize(
    "scheme_factory",
    [
        IdPriority,
        DegreePriority,
        NcrPriority,
        # metric_locality None: every flip step re-decides every node.
        pytest.param(_energy_priority, id="EnergyAwarePriority"),
    ],
)
@pytest.mark.parametrize("seed", range(10))
def test_mobility_sweep_incremental_matches_rebuild(seed, scheme_factory):
    incremental = run_trace_sweep(
        record_flip_trace(_model(seed), steps=5, dt=1.0),
        scheme=scheme_factory(), k=2,
    )
    rebuilt = mobility_sweep_by_rebuild(
        _model(seed), steps=5, dt=1.0, scheme=scheme_factory(), k=2
    )
    assert [s.forward for s in incremental] == [s.forward for s in rebuilt]
    assert [s.step for s in incremental] == [s.step for s in rebuilt]
    assert [(s.added_edges, s.removed_edges) for s in incremental] == (
        [(s.added_edges, s.removed_edges) for s in rebuilt]
    )
    # The whole point: the incremental path must not re-decide everything
    # on quiet steps.
    assert any(
        s.redecided < len(_model(seed).positions()) for s in incremental[1:]
    ) or all(s.added_edges or s.removed_edges for s in incremental[1:])


# ----------------------------------------------------------------------
# Fast-path mechanics
# ----------------------------------------------------------------------


def _path_graph(n: int = 10) -> Topology:
    return Topology(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])


class TestFastPath:
    def test_report_shape(self):
        graph = _path_graph()
        _warm(graph)
        before = len(graph._query_cache)
        report = graph.apply_delta(added_edges=[(0, 2)], extra_radii=(3,))
        # The cached radius (2) and the requested one (3), nothing else.
        assert sorted(report.dirty_by_radius) == [2, 3]
        assert {0, 2} <= report.dirty_at(2)
        assert 0 < len(graph._query_cache) < before
        # Radius-3 ball around {0, 2} on a path: nodes 0..5.
        assert report.dirty_at(3) == frozenset(range(6))

    def test_dirty_ball_unions_old_and_new_adjacency(self):
        # Removing (4, 5) splits the path; radius-2 dirty must still
        # include both sides as reached through the *old* adjacency.
        graph = _path_graph()
        report = graph.apply_delta(removed_edges=[(4, 5)], extra_radii=(2,))
        assert report.dirty_at(2) == frozenset(range(2, 8))

    def test_unconsidered_radius_raises(self):
        graph = _path_graph()
        report = graph.apply_delta(added_edges=[(0, 2)])
        with pytest.raises(KeyError, match="extra_radii"):
            report.dirty_at(4)

    def test_epoch_untouched_cache_retained(self):
        graph = _path_graph()
        _warm(graph)
        v0 = graph.version_stamp()
        far = graph.k_hop_view_graph(9, 2)
        graph.apply_delta(added_edges=[(0, 2)])
        assert graph.version_stamp() == v0 + 1
        # The far node's cached view survived as the same object.
        assert graph.k_hop_view_graph(9, 2) is far
        # Global entries (untruncated BFS, max degree) do not.
        assert ("max_degree",) not in graph._query_cache
        assert not [key for key in graph._query_cache if key[0] == "bfs"]

    def test_full_mutation_dirties_everything(self):
        graph = _path_graph()
        _warm(graph)
        graph.is_connected()
        v0 = graph.version_stamp()
        graph.add_edge(0, 5)
        assert graph.version_stamp() == v0 + 1
        assert graph._query_cache == {}

    def test_empty_delta_is_noop(self):
        graph = _path_graph()
        _warm(graph)
        v0 = graph.version_stamp()
        cached = dict(graph._query_cache)
        report = graph.apply_delta(extra_radii=(2,))
        assert report.dirty_by_radius == {2: frozenset()}
        assert graph._query_cache == cached
        assert graph.version_stamp() == v0

    def test_counters(self):
        graph = _path_graph()
        _warm(graph)
        with collecting() as counters:
            report = graph.apply_delta(added_edges=[(0, 2)])
        assert counters.delta_applies == 1
        # One cached radius (2), whose ball holds the endpoints.
        assert counters.dirty_nodes_invalidated == len(report.dirty_at(2))
        assert counters.cache_entries_retained == len(graph._query_cache)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


class TestFallbackAndValidation:
    @pytest.mark.parametrize(
        "kwargs, exc",
        [
            (dict(removed_edges=[(0, 5)]), KeyError),
            (dict(added_edges=[(0, 1)]), ValueError),
            (dict(added_edges=[(2, 0)], removed_edges=[(0, 2)]), ValueError),
            (dict(added_edges=[(3, 3)]), ValueError),
            (dict(removed_edges=[(4, 4)]), ValueError),
            (dict(added_edges=[(0, 99)]), KeyError),
            (dict(added_edges=[(0, 2), (1, 0)]), ValueError),
            (dict(added_edges=[(0, 2)], extra_radii=(-1,)), ValueError),
            (dict(added_edges=[(0, 2), (5, 50)]), KeyError),
            (dict(added_edges=[(77, 2)], removed_edges=[(0, 1)]), KeyError),
        ],
    )
    def test_invalid_deltas_rejected_atomically(self, kwargs, exc):
        graph = _path_graph()
        edges_before = sorted(graph.edges())
        v0 = graph.version_stamp()
        with pytest.raises(exc):
            graph.apply_delta(**kwargs)
        assert graph.nodes() == list(range(10))
        assert sorted(graph.edges()) == edges_before
        assert graph.version_stamp() == v0

    def test_duplicate_entries_coalesce(self):
        graph = _path_graph()
        report = graph.apply_delta(
            added_edges=[(0, 2), (2, 0)], extra_radii=(0,)
        )
        assert report.dirty_at(0) == frozenset({0, 2})
        assert graph.has_edge(0, 2)


# ----------------------------------------------------------------------
# Replayed deltas: one shared topology, rebuilt-graph agreement
# ----------------------------------------------------------------------


class TestSnapshotReuse:
    def test_no_flip_deltas_report_none(self):
        # Speeds of ~1e-9 per unit time cannot flip a link in a 60x60
        # area with radius 22: every step must leave the topology as is.
        trace = record_flip_trace(_model(3, speed=2e-9), 4, 1.0)
        deltas = list(trace.replay())
        assert len(deltas) == 4
        assert all(d.report is None for d in deltas)
        assert all(d.topology is deltas[0].topology for d in deltas)

    def test_deltas_share_one_mutable_topology(self):
        deltas = list(record_flip_trace(_model(5), 5, 1.5).replay())
        assert any(d.report is not None for d in deltas)
        assert all(d.topology is deltas[0].topology for d in deltas)

    def test_snapshots_and_deltas_agree(self):
        steps = 0
        for delta, expected in _replay_in_lockstep(7, steps=5, dt=1.0):
            assert sorted(delta.topology.nodes()) == sorted(expected.nodes())
            assert sorted(delta.topology.edges()) == sorted(expected.edges())
            steps += 1
        assert steps == 5
