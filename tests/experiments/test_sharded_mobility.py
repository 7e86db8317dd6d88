"""Property tests for the sharded incremental mobility engine.

The determinism contract under test: merged sharded forward sets are
byte-identical to the serial incremental path (and to the full-rebuild
oracle) at **any** shard grid and worker count, on every coverage
backend.  Each seed rotates through one (backend, grid, jobs) cell so 50
seeds cover all 18 combinations several times over without a 900-case
matrix.
"""

import random

import pytest

from repro.core.priority import (
    DegreePriority,
    NcrPriority,
    RandomEpochPriority,
)
from repro.experiments import (
    run_mobility_sweep,
    run_sharded_mobility_sweep,
    run_sharded_trace,
    run_trace_sweep,
)
from repro.experiments.sharded import _route_flips
from repro.graph import (
    Area,
    FlipStep,
    FlipTrace,
    ShardGrid,
    random_points,
    range_for_average_degree,
    record_flip_trace,
)
from repro.graph.geometry import Point
from repro.graph.mobility import RandomWaypointModel
from repro.instrument import collecting

SEEDS = range(50)
BACKENDS = ("sets", "bitset")
GRIDS = ((1, 1), (2, 2), (4, 2))
JOBS = (1, 2, 4)


def _model(seed: int, n: int = 24) -> RandomWaypointModel:
    rng = random.Random(seed)
    positions = random_points(n, Area(), rng)
    radius, _links = range_for_average_degree(positions, 5.0)
    return RandomWaypointModel(
        positions, radius=radius, rng=rng, min_speed=1.0, max_speed=3.0
    )


def _cell(seed: int):
    """This seed's (backend, grid, jobs) cell of the rotation."""
    return (
        BACKENDS[seed % len(BACKENDS)],
        GRIDS[(seed // 3) % 3],
        JOBS[(seed // 9) % 3],
    )


def _payload(steps):
    return [
        (s.step, s.forward, s.added_edges, s.removed_edges) for s in steps
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_matches_serial_and_rebuild(seed, monkeypatch):
    backend, grid, jobs = _cell(seed)
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
    scheme_factory = NcrPriority if seed % 5 == 0 else DegreePriority
    serial = run_mobility_sweep(
        _model(seed), 5, 1.0, scheme=scheme_factory(), k=2
    )
    rebuilt = run_mobility_sweep(
        _model(seed), 5, 1.0, scheme=scheme_factory(), k=2, incremental=False
    )
    sharded = run_sharded_mobility_sweep(
        _model(seed), 5, 1.0,
        scheme=scheme_factory(), k=2, shards=grid, jobs=jobs,
        clamp=False,  # exercise real fork pools even on a 1-core box
    )
    assert _payload(serial) == _payload(rebuilt)
    assert _payload(serial) == _payload(sharded)
    # The sharded router re-decides exactly the serial dirty set (the
    # handoff copies are extra work, never extra coverage).
    assert [s.redecided for s in sharded] == [s.redecided for s in serial]
    assert [s.time for s in sharded] == [s.time for s in serial]


def test_run_mobility_sweep_shards_kwarg_delegates():
    serial = run_mobility_sweep(_model(7), 4, 1.0, scheme=DegreePriority())
    sharded = run_mobility_sweep(
        _model(7), 4, 1.0, scheme=DegreePriority(), shards=(2, 2), jobs=2
    )
    assert _payload(serial) == _payload(sharded)


def test_shards_with_rebuild_oracle_rejected():
    with pytest.raises(ValueError):
        run_mobility_sweep(
            _model(7), 2, 1.0, shards=(2, 2), incremental=False
        )


def test_bad_jobs_rejected():
    with pytest.raises(ValueError):
        run_sharded_mobility_sweep(_model(7), 2, 1.0, jobs=0)
    with pytest.raises(ValueError):
        run_sharded_mobility_sweep(_model(7), -1, 1.0)


# ----------------------------------------------------------------------
# Crafted handoff fixture: one flip's dirty ball spans three shards
# ----------------------------------------------------------------------


def _chain_trace() -> FlipTrace:
    """A 13-node chain along x, one cell per node, radius 1.

    Step 0 carries no flips (the first step decides every node); step 1
    removes the middle link (6, 7); step 2 restores it.
    """
    positions = {i: Point(0.5 + i, 0.5) for i in range(13)}
    steps = (
        FlipStep(step=0, time=1.0, added=(), removed=()),
        FlipStep(step=1, time=2.0, added=(), removed=((6, 7),)),
        FlipStep(step=2, time=3.0, added=((6, 7),), removed=()),
    )
    return FlipTrace(positions=positions, radius=1.0, steps=steps)


def test_chain_fixture_geometry():
    trace = _chain_trace()
    grid = ShardGrid(trace.positions, trace.radius, shape=(3, 1), halo_cells=2)
    assert grid._x_starts == [0, 5, 9, 13]
    routed = grid.assign(trace.positions).routed
    # Dirty ball of the (6, 7) flip at radius 2: nodes 4..9.
    assert routed[4] == (0, 1)
    assert routed[5] == (0, 1)
    assert routed[6] == (0, 1)
    assert routed[7] == (1, 2)
    assert routed[8] == (1, 2)
    assert routed[9] == (1, 2)


@pytest.mark.parametrize("jobs", JOBS)
def test_three_shard_handoff(jobs):
    trace = _chain_trace()
    scheme = DegreePriority()
    serial = run_trace_sweep(trace, scheme=scheme, k=2)
    sharded = run_sharded_trace(
        trace, scheme=scheme, k=2, shards=(3, 1), jobs=jobs, clamp=False
    )
    assert _payload(serial) == _payload(sharded)
    middle = sharded[1]
    assert middle.removed_edges == 1
    # Nodes 4..9 turn dirty; 4..6 route to shards {0, 1}, 7..9 to
    # {1, 2} — six re-decisions, six handoff copies, and the flip's
    # routed sets span all three shards.
    assert middle.redecided == 6
    assert middle.shard_redecides == 12
    assert middle.handoff_redecides == 6
    assert middle.boundary_flips == 1
    restored = sharded[2]
    assert restored.added_edges == 1
    assert restored.boundary_flips == 1
    assert sharded[0].redecided == 13  # first step decides everyone


# ----------------------------------------------------------------------
# FlipTrace record → replay round-trips
# ----------------------------------------------------------------------


def test_fliptrace_jsonl_round_trip_is_byte_identical():
    trace = record_flip_trace(_model(11), 6, 1.0)
    lines = trace.to_jsonl_lines()
    rebuilt = FlipTrace.from_jsonl_lines(lines)
    assert rebuilt.to_jsonl_lines() == lines
    assert rebuilt.radius == trace.radius
    assert rebuilt.positions == trace.positions
    assert rebuilt.steps == trace.steps


def test_fliptrace_jsonl_file_round_trip(tmp_path):
    trace = record_flip_trace(_model(12), 4, 1.0)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    rebuilt = FlipTrace.from_jsonl(path)
    assert rebuilt.to_jsonl_lines() == trace.to_jsonl_lines()


def test_trace_replay_matches_live_sweep():
    scheme = DegreePriority()
    trace = record_flip_trace(_model(13), 5, 1.0)
    live = run_mobility_sweep(_model(13), 5, 1.0, scheme=scheme, k=2)
    replayed = run_trace_sweep(trace, scheme=scheme, k=2)
    assert _payload(live) == _payload(replayed)
    sharded = run_sharded_trace(
        trace, scheme=scheme, k=2, shards=(2, 2), jobs=2, clamp=False
    )
    assert _payload(live) == _payload(sharded)


def test_fliptrace_rejects_truncated_lines():
    lines = record_flip_trace(_model(11), 6, 1.0).to_jsonl_lines()
    assert len(lines) == 7  # header + steps 0..5
    with pytest.raises(ValueError, match="expected step 2"):
        FlipTrace.from_jsonl_lines(lines[:3] + lines[4:])
    with pytest.raises(ValueError):
        FlipTrace.from_jsonl_lines(lines[:-1] + [lines[-1][:-5]])


def test_fliptrace_flip_counts_round_trip():
    trace = record_flip_trace(_model(14), 5, 1.0)
    for entry, snap in zip(trace.steps, trace.replay()):
        assert entry.flip_count == len(entry.added) + len(entry.removed)
        assert snap.flip_count == entry.flip_count


def test_fliptrace_rejects_bad_header():
    with pytest.raises(ValueError):
        FlipTrace.from_jsonl_lines([])
    with pytest.raises(ValueError):
        FlipTrace.from_jsonl_lines(['{"format": "other", "version": 1}'])


# ----------------------------------------------------------------------
# Partial replicas: flip routing, locality rejection, counters
# ----------------------------------------------------------------------


def test_flip_outside_universe_is_never_shipped():
    universes = {0: {0, 1, 2, 3}, 1: {3, 4, 5, 6}}
    routed = _route_flips(universes, ((4, 5),), ((0, 1),))
    # Each flip reaches exactly the shards holding BOTH endpoints.
    assert routed == {0: ((), ((0, 1),)), 1: (((4, 5),), ())}
    # An edge spanning two universes without a common holder ships
    # nowhere: it exists in neither induced subgraph.
    assert _route_flips(universes, ((2, 4),), ()) == {}
    assert _route_flips(universes, (), ()) == {}


def test_random_epoch_scheme_rejected_on_partial_replicas():
    # The rank-ordered per-epoch draw reads the whole node set, so its
    # values cannot be reproduced on a partial replica.
    assert RandomEpochPriority.metric_value_radius is None
    with pytest.raises(ValueError, match="metric_value_radius"):
        run_sharded_mobility_sweep(
            _model(7), 2, 1.0, scheme=RandomEpochPriority()
        )


def test_bad_rehome_factor_rejected():
    with pytest.raises(ValueError, match="rehome_factor"):
        run_sharded_mobility_sweep(_model(7), 2, 1.0, rehome_factor=0.5)


@pytest.mark.parametrize("jobs", (1, 2))
def test_counters_jobs_invariant_and_serial_equal(jobs):
    trace = record_flip_trace(_model(21), 6, 1.0)
    scheme = DegreePriority()
    with collecting() as serial_counters:
        serial = run_trace_sweep(trace, scheme=scheme, k=2)
    with collecting() as base_counters:
        base = run_sharded_trace(
            trace, scheme=scheme, k=2, shards=(2, 2), jobs=1, clamp=False
        )
    with collecting() as counters:
        sharded = run_sharded_trace(
            trace, scheme=scheme, k=2, shards=(2, 2), jobs=jobs,
            clamp=False,
        )
    assert _payload(serial) == _payload(base) == _payload(sharded)
    # The per-shard partial replicas are jobs-invariant, so the merged
    # counters must equal the jobs=1 totals field for field.
    invariant = (
        "shard_flips_applied",
        "replica_nodes_max",
        "shard_rehomes",
        "shard_redecides",
        "shard_handoff_redecides",
        "shard_boundary_flips",
        "coverage_evaluations",
    )
    for field in invariant:
        assert getattr(counters, field) == getattr(base_counters, field), field
    # Owner-only shipping evaluates each stale node exactly once, so
    # coverage work equals the serial sweep's.
    assert counters.coverage_evaluations == (
        serial_counters.coverage_evaluations
    )
    assert 0 < counters.replica_nodes_max <= 24


# ----------------------------------------------------------------------
# Dynamic re-homing: a skewed trace forces a mid-run re-partition
# ----------------------------------------------------------------------


def _skewed_trace(toggles: int = 4) -> FlipTrace:
    """A 13-node chain whose flips all hit the left end.

    Every flip toggles the (0, 1) link, so the whole dirty load lands
    in the left shard of a (2, 1) grid — the max/mean skew a re-home
    exists to fix.
    """
    positions = {i: Point(0.5 + i, 0.5) for i in range(13)}
    steps = [FlipStep(step=0, time=1.0, added=(), removed=())]
    for index in range(toggles):
        removing = index % 2 == 0
        steps.append(
            FlipStep(
                step=index + 1,
                time=float(index + 2),
                added=() if removing else ((0, 1),),
                removed=((0, 1),) if removing else (),
            )
        )
    return FlipTrace(positions=positions, radius=1.0, steps=tuple(steps))


@pytest.mark.parametrize("jobs", (1, 2))
def test_rehome_fires_and_preserves_identity(jobs):
    trace = _skewed_trace()
    scheme = DegreePriority()
    serial = run_trace_sweep(trace, scheme=scheme, k=2)
    with collecting() as counters:
        sharded = run_sharded_trace(
            trace, scheme=scheme, k=2, shards=(2, 1), jobs=jobs,
            clamp=False, rehome_factor=1.5,
        )
    assert _payload(serial) == _payload(sharded)
    rehomed_steps = [s.step for s in sharded if s.rehomed]
    # The first loaded window (step 1: dirty nodes 0..3, all owned by
    # the left shard) trips the 1.5x skew gate and moves the split;
    # the identical skew afterwards reproduces the same weighted split,
    # so the re-home fires exactly once.
    assert rehomed_steps == [1]
    assert counters.shard_rehomes == 1


def test_rehome_schedule_is_jobs_invariant():
    trace = _skewed_trace()
    scheme = DegreePriority()
    flags = []
    for jobs in (1, 2, 4):
        sharded = run_sharded_trace(
            trace, scheme=scheme, k=2, shards=(2, 1), jobs=jobs,
            clamp=False, rehome_factor=1.5,
        )
        flags.append(tuple(s.rehomed for s in sharded))
    assert flags[0] == flags[1] == flags[2]


def test_rehome_disabled_with_none():
    trace = _skewed_trace()
    sharded = run_sharded_trace(
        trace, scheme=DegreePriority(), k=2, shards=(2, 1),
        rehome_factor=None,
    )
    assert not any(s.rehomed for s in sharded)
