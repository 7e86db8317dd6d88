"""Tests for the random-waypoint mobility model."""

import random

import pytest

from repro.graph.fliptrace import record_flip_trace
from repro.graph.geometry import Area, Point, random_points
from repro.graph.mobility import RandomWaypointModel
from repro.graph.unit_disk import build_unit_disk_graph


def _model(**kwargs) -> RandomWaypointModel:
    rng = random.Random(13)
    positions = random_points(10, Area(50, 50), rng)
    defaults = dict(
        initial_positions=positions,
        radius=20.0,
        rng=rng,
        area=Area(50, 50),
    )
    defaults.update(kwargs)
    return RandomWaypointModel(**defaults)


def _rebuilt_edges(model: RandomWaypointModel) -> set:
    """The edges of the unit-disk graph rebuilt at the model's positions."""
    graph = build_unit_disk_graph(model.positions(), model.radius)
    return set(graph.topology.edges())


class TestRandomWaypoint:
    def test_nodes_stay_inside_area(self):
        model = _model()
        for _ in range(50):
            model.advance(1.0)
            for position in model.positions().values():
                assert 0 <= position.x <= 50
                assert 0 <= position.y <= 50

    def test_nodes_actually_move(self):
        model = _model()
        before = model.positions()
        model.advance(5.0)
        after = model.positions()
        moved = sum(
            1
            for node in before
            if before[node].distance_to(after[node]) > 1e-9
        )
        assert moved == len(before)

    def test_speed_bounds_respected(self):
        model = _model(min_speed=1.0, max_speed=1.0)
        before = model.positions()
        dt = 0.5
        model.advance(dt)
        after = model.positions()
        for node in before:
            # At constant speed 1, displacement <= dt (waypoint turns can
            # shorten the straight-line distance, never lengthen it).
            assert before[node].distance_to(after[node]) <= dt + 1e-9

    def test_zero_dt_is_noop(self):
        model = _model()
        before = model.positions()
        model.advance(0.0)
        assert model.positions() == before

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            _model().advance(-1.0)

    def test_invalid_speeds_rejected(self):
        with pytest.raises(ValueError):
            _model(min_speed=0.0)
        with pytest.raises(ValueError):
            _model(min_speed=3.0, max_speed=1.0)
        with pytest.raises(ValueError):
            _model(pause_time=-1.0)

    def test_pause_halts_motion_at_waypoint(self):
        rng = random.Random(1)
        start = Point(25, 25)
        model = RandomWaypointModel(
            initial_positions={0: start},
            radius=10.0,
            rng=rng,
            area=Area(50, 50),
            min_speed=100.0,
            max_speed=100.0,
            pause_time=1000.0,
        )
        # At speed 100 in a 50x50 area, the first waypoint is reached well
        # within one time unit; the node then pauses for 1000 units.
        model.advance(1.0)
        frozen = model.positions()[0]
        model.advance(5.0)
        assert model.positions()[0] == frozen

    def test_snapshot_is_unit_disk_graph(self):
        model = _model()
        model.advance(1.0)
        snap = model.snapshot()
        assert snap.node_count == 10
        for u, v in snap.topology.edges():
            d = snap.positions[u].distance_to(snap.positions[v])
            assert d <= model.radius + 1e-9

    def test_time_accumulates(self):
        model = _model()
        model.advance(2.5)
        model.advance(0.5)
        assert model.time == pytest.approx(3.0)


class TestMobilityStaleMetrics:
    """Local views must survive a topology that grew after the metrics
    snapshot — the mobility path that used to raise a bare ``KeyError``
    in ``_restrict_metrics``."""

    def test_local_view_on_grown_snapshot(self):
        from repro.core.priority import DegreePriority
        from repro.core.views import local_view

        model = _model()
        first = model.snapshot().topology
        scheme = DegreePriority()
        table = scheme.metrics(first)  # hello-round snapshot of metrics
        model.advance(5.0)
        second = model.snapshot().topology
        # A node joins the network between hello rounds: no metrics entry.
        newcomer = max(second.nodes()) + 1
        second.add_edge(newcomer, next(iter(second.nodes())))
        for center in second.nodes():
            view = local_view(second, center, 2, scheme, metrics=table)
            if newcomer in view.graph:
                assert view.metrics[newcomer] == scheme.padding()


class TestSnapshotDeltaFlipCount:
    """A replayed step carries exactly the flips its model step caused."""

    def test_flip_count_matches_edge_lists(self):
        # The replayed flips of each step must be the edge diff between
        # an equally seeded model's graphs, rebuilt before and after it
        # advances in lockstep.
        trace = record_flip_trace(_model(), 8, 2.0)
        twin = _model()
        before = _rebuilt_edges(twin)
        total = 0
        for snap in trace.replay():
            twin.advance(2.0)
            after = _rebuilt_edges(twin)
            assert snap.added_edges == tuple(sorted(after - before))
            assert snap.removed_edges == tuple(sorted(before - after))
            assert sorted(snap.topology.edges()) == sorted(after)
            total += len(snap.added_edges) + len(snap.removed_edges)
            before = after
        assert total > 0, "fixture produced no link flips; test is vacuous"

    def test_quiet_step_has_zero_flip_count(self):
        # dt=0 moves nobody: the replayed step must carry no flips.
        trace = record_flip_trace(_model(), 1, 0.0)
        snap = next(trace.replay())
        assert snap.added_edges == ()
        assert snap.removed_edges == ()
        assert snap.report is None
