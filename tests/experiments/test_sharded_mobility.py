"""Property tests for the trace sweep split over worker groups.

The determinism contract under test: ``run_trace_sweep(..., jobs=N)``
merges its worker groups' steps into exactly the serial incremental
path's steps (and the full-rebuild oracle's forward sets) at **any**
worker count, on the coverage kernel and on the reference predicates
(``sets``, run under :func:`repro.check.reference.substituted`, whose
rebinding the forked workers inherit).  Each seed rotates through one
(backend, jobs) cell so 50 seeds cover all 6 combinations several times
over.
"""

import contextlib
import multiprocessing
import os
import random
import signal

import pytest

from repro.core.priority import (
    DegreePriority,
    NcrPriority,
    RandomEpochPriority,
)
from repro.experiments import (
    ShardGroupFailure,
    run_mobility_sweep,
    run_trace_sweep,
)
from repro.experiments import runner as runner_module
from repro.graph import (
    Area,
    FlipStep,
    FlipTrace,
    random_points,
    range_for_average_degree,
    record_flip_trace,
)
from repro.graph.geometry import Point
from repro.graph.mobility import RandomWaypointModel
from repro.instrument import collecting

SEEDS = range(50)
BACKENDS = ("sets", "bitset")
JOBS = (1, 2, 4)


def _model(seed: int, n: int = 24) -> RandomWaypointModel:
    rng = random.Random(seed)
    positions = random_points(n, Area(), rng)
    radius, _links = range_for_average_degree(positions, 5.0)
    return RandomWaypointModel(
        positions, radius=radius, rng=rng, min_speed=1.0, max_speed=3.0
    )


def _cell(seed: int):
    """This seed's (backend, jobs) cell of the rotation."""
    return BACKENDS[seed % len(BACKENDS)], JOBS[(seed // 2) % len(JOBS)]


def _payload(steps):
    return [
        (s.step, s.forward, s.added_edges, s.removed_edges) for s in steps
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_matches_serial_and_rebuild(seed, on_backend):
    backend, jobs = _cell(seed)
    scheme_factory = NcrPriority if seed % 5 == 0 else DegreePriority
    with on_backend(backend):
        serial = run_mobility_sweep(
            _model(seed), 5, 1.0, scheme=scheme_factory(), k=2
        )
        rebuilt = run_mobility_sweep(
            _model(seed), 5, 1.0, scheme=scheme_factory(), k=2,
            incremental=False,
        )
        sharded = run_trace_sweep(
            record_flip_trace(_model(seed), 5, 1.0),
            scheme=scheme_factory(), k=2, jobs=jobs,
        )
    assert _payload(serial) == _payload(rebuilt)
    # Steps, times, forward sets, flip counts and the re-decide counts:
    # the worker groups split the serial dirty set between them.
    assert sharded == serial


def test_bad_jobs_rejected():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_trace_sweep(record_flip_trace(_model(7), 2, 1.0), jobs=0)
    with pytest.raises(ValueError):
        run_mobility_sweep(_model(7), -1, 1.0)


def test_more_jobs_than_nodes_matches_serial():
    # Five requested workers over three nodes: two would own nothing, so
    # the sweep runs three one-node groups and still merges to serial.
    positions = {i: Point(0.5 + i, 0.5) for i in range(3)}
    trace = FlipTrace(
        positions=positions,
        radius=1.0,
        steps=(
            FlipStep(step=0, time=1.0, added=(), removed=()),
            FlipStep(step=1, time=2.0, added=(), removed=((1, 2),)),
        ),
    )
    serial = run_trace_sweep(trace, scheme=DegreePriority(), k=2)
    assert run_trace_sweep(trace, scheme=DegreePriority(), k=2, jobs=5) == serial


# ----------------------------------------------------------------------
# Crafted chain fixture: one flip's dirty ball spans every group
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


@pytest.mark.parametrize("jobs", JOBS)
def test_three_shard_handoff(jobs):
    trace = _chain_trace()
    scheme = DegreePriority()
    serial = run_trace_sweep(trace, scheme=scheme, k=2)
    sharded = run_trace_sweep(trace, scheme=scheme, k=2, jobs=jobs)
    assert sharded == serial
    middle = sharded[1]
    assert middle.removed_edges == 1
    # Nodes 4..9 turn dirty; group g owns the nodes equal to g modulo
    # jobs, so at every jobs value the ball spans all groups, and each
    # node is decided once, by its owner's group.
    assert middle.redecided == 6
    assert sharded[2].added_edges == 1
    assert sharded[0].redecided == 13  # first step decides everyone


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool needs the fork start method",
)


@contextlib.contextmanager
def _no_hang(seconds: int = 60):
    def hung(signum, frame):
        raise AssertionError("sharded run hung after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# On two workers group 0 owns the even chain nodes, group 1 the odd ones.
_GROUP_MARKER = {0: 0, 1: 1}


def _sabotage_group(monkeypatch, fail, group=1):
    """Run ``fail()`` when ``group``'s replay reaches step 1."""
    sweep = runner_module._incremental_sweep_over
    marker = _GROUP_MARKER[group]

    def sabotaged(deltas, scheme, k, radius, owned=None):
        def watched():
            for snap in deltas:
                if snap.step == 1 and owned is not None and marker in owned:
                    fail()
                yield snap

        return sweep(watched(), scheme, k, radius, owned=owned)

    monkeypatch.setattr(runner_module, "_incremental_sweep_over", sabotaged)


def _run_chain_on_two_workers():
    return run_trace_sweep(_chain_trace(), scheme=DegreePriority(), k=2, jobs=2)


@needs_fork
def test_worker_killed_mid_sweep_is_redispatched(monkeypatch):
    """A worker SIGKILLed mid-sweep breaks the pool; its group is
    re-dispatched in the parent and the merged result still equals the
    serial sweep, with no hang."""
    serial = run_trace_sweep(_chain_trace(), scheme=DegreePriority(), k=2)

    def die():
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)

    _sabotage_group(monkeypatch, die)
    with _no_hang():
        sharded = _run_chain_on_two_workers()
    assert sharded == serial


@needs_fork
@pytest.mark.parametrize("victim", (0, 1))
def test_worker_killed_between_steps_raises_typed_error(victim, monkeypatch):
    """A worker SIGKILLed between steps 0 and 1 whose group fails again
    on the parent's retry surfaces as a ``ShardGroupFailure`` naming
    that group, not as a bare ``BrokenProcessPool`` and never as a
    hang, whichever group the dead worker ran."""

    def die_then_fail():
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("injected retry failure")

    _sabotage_group(monkeypatch, die_then_fail, group=victim)
    with _no_hang(), pytest.raises(
        ShardGroupFailure,
        match=rf"shard worker group {victim} failed after retry",
    ) as excinfo:
        _run_chain_on_two_workers()
    assert excinfo.value.group == victim
    assert "BrokenProcessPool" in excinfo.value.worker_traceback
    assert isinstance(excinfo.value.__cause__, RuntimeError)


@needs_fork
def test_group_failing_twice_raises_typed_error(monkeypatch):
    """A group that fails in its worker and again on the parent's retry
    surfaces as a ``ShardGroupFailure`` naming the group."""

    def bomb():
        raise RuntimeError("injected group failure")

    _sabotage_group(monkeypatch, bomb)
    with _no_hang(), pytest.raises(
        ShardGroupFailure, match=r"shard worker group 1 failed after retry"
    ) as excinfo:
        _run_chain_on_two_workers()
    assert excinfo.value.group == 1
    assert "injected group failure" in excinfo.value.worker_traceback
    assert isinstance(excinfo.value.__cause__, RuntimeError)


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
    sharded = run_trace_sweep(trace, scheme=scheme, k=2, jobs=2)
    assert _payload(live) == _payload(sharded)


def test_fliptrace_rejects_truncated_lines():
    lines = record_flip_trace(_model(11), 6, 1.0).to_jsonl_lines()
    assert len(lines) == 7  # header + steps 0..5
    with pytest.raises(ValueError, match="expected step 2"):
        FlipTrace.from_jsonl_lines(lines[:3] + lines[4:])
    with pytest.raises(ValueError):
        FlipTrace.from_jsonl_lines(lines[:-1] + [lines[-1][:-5]])
    with pytest.raises(ValueError, match="promises 6 steps, found 5"):
        FlipTrace.from_jsonl_lines(lines[:-1])


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
    with pytest.raises(ValueError, match="unsupported repro-fliptrace version 1"):
        FlipTrace.from_jsonl_lines(
            ['{"format": "repro-fliptrace", "version": 1, "radius": 1.0, '
             '"positions": {}}']
        )


# ----------------------------------------------------------------------
# Any scheme, counters
# ----------------------------------------------------------------------


def test_random_epoch_scheme_sharded_matches_serial():
    # The rank-ordered per-epoch draw reads the whole node set; every
    # group holds a full copy, so the split sweep reproduces it.
    trace = record_flip_trace(_model(7), 4, 1.0)
    serial = run_trace_sweep(trace, scheme=RandomEpochPriority(3), k=2)
    for jobs in (2, 3):
        sharded = run_trace_sweep(
            trace, scheme=RandomEpochPriority(3), k=2, jobs=jobs
        )
        assert sharded == serial


@pytest.mark.parametrize("jobs", (1, 2))
def test_counters_jobs_invariant_and_serial_equal(jobs):
    trace = record_flip_trace(_model(21), 6, 1.0)
    scheme = DegreePriority()
    with collecting() as serial_counters:
        serial = run_trace_sweep(trace, scheme=scheme, k=2)
    with collecting() as counters:
        sharded = run_trace_sweep(trace, scheme=scheme, k=2, jobs=jobs)
    assert serial == sharded
    # Each stale node is decided by exactly one group, so the
    # decision-side work equals the serial sweep's at every jobs value.
    decision_side = (
        "coverage_evaluations",
        "component_decompositions",
        "mask_floodfills",
    )
    for field in decision_side:
        assert getattr(counters, field) == getattr(serial_counters, field), field
    # Every group replays the whole trace on its own topology copy.
    assert serial_counters.delta_applies > 0
    assert counters.delta_applies == serial_counters.delta_applies * jobs
    # Retired shard and coverage-memo counters, kept only for the
    # benchmark ledger.
    for field in (
        "coverage_memo_hits",
        "coverage_memo_misses",
        "forward_set_reuses",
        "shard_redecides",
        "shard_handoff_redecides",
        "shard_flips_applied",
        "replica_nodes_max",
        "shard_rehomes",
    ):
        assert getattr(counters, field) == 0, field


# ----------------------------------------------------------------------
# Skewed load: every flip lands on one end of the chain
# ----------------------------------------------------------------------


def _skewed_trace(toggles: int = 4) -> FlipTrace:
    """A 13-node chain whose flips all hit the left end.

    Every flip toggles the (0, 1) link, so the whole dirty load lands on
    nodes 0..3 while the rest of the chain idles.
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
def test_skewed_trace_static_split_is_exact(jobs):
    trace = _skewed_trace()
    scheme = DegreePriority()
    serial = run_trace_sweep(trace, scheme=scheme, k=2)
    sharded = run_trace_sweep(trace, scheme=scheme, k=2, jobs=jobs)
    # All churn at one end changes the load, never the answer: the
    # static split stays exact.
    assert _payload(serial) == _payload(sharded)
