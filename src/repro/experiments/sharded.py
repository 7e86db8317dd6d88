"""Sharded mobility driver: the serial incremental sweep, split by owner.

The serial incremental sweep (:func:`repro.experiments.runner.
run_trace_sweep`) replays a flip trace through one mutable
:class:`~repro.graph.topology.Topology` and re-decides only the dirty
ball of radius ``k + scheme.metric_locality`` per step.  A node's
decision reads only its own k-hop view (Definition 2), so any partition
of the stale set across processes decides every node exactly as the
serial loop does.  This module makes that partition:

* a :class:`~repro.graph.sharding.ShardGrid` pinned on the base
  positions gives every node an owning shard, and shard ``sid`` belongs
  to worker group ``sid % workers``;
* each group replays the whole trace on its own full copy of the
  topology through the serial loop, deciding only the stale nodes it
  owns;
* the parent merges each step: the forward set is the sorted union of
  the groups' forward sets, ``redecided`` is their sum.

The groups are tasks of the sweep pool
(:func:`repro.experiments.parallel.run_points`): one fork worker per
group, or in-process when a single worker is left after clamping.  A
group whose worker raises or dies is re-dispatched once in the parent;
a second failure raises :class:`ShardGroupFailure`.

The determinism contract: for any shard grid and worker count the
merged steps equal :func:`~repro.experiments.runner.run_trace_sweep`'s
:class:`~repro.experiments.runner.MobilityStep` list byte for byte,
because every group sees the serial stale set and metric table and the
groups' owned sets partition the nodes.  Any scheme qualifies,
including ones whose metric values read the whole node set.
"""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

from ..core.priority import IdPriority, PriorityScheme
from ..graph.fliptrace import FlipTrace, record_flip_trace
from ..graph.mobility import RandomWaypointModel
from ..graph.sharding import ShardGrid
from ..instrument import InstrumentationCounters, active, collecting
from .parallel import run_points
from .runner import MobilityStep, _replay_trace

__all__ = [
    "ShardGroupFailure",
    "run_sharded_mobility_sweep",
    "run_sharded_trace",
]


class ShardGroupFailure(RuntimeError):
    """A worker group's replay failed twice (original dispatch plus one
    retry); the underlying exception is chained as ``__cause__``."""

    def __init__(self, group: int, worker_traceback: str) -> None:
        super().__init__(f"shard worker group {group} failed after retry")
        self.group = group
        self.worker_traceback = worker_traceback


def run_sharded_mobility_sweep(
    model: RandomWaypointModel,
    steps: int,
    dt: float,
    scheme: Optional[PriorityScheme] = None,
    k: int = 2,
    shards: Tuple[int, int] = (2, 2),
    jobs: int = 1,
    clamp: bool = True,
) -> List[MobilityStep]:
    """Sharded exact forward sets across a mobility trace.

    Records ``steps`` steps of ``model`` (:func:`~repro.graph.fliptrace.
    record_flip_trace`) and replays them through
    :func:`run_sharded_trace`; the result equals
    :func:`~repro.experiments.runner.run_mobility_sweep` on an equally
    seeded model.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return run_sharded_trace(
        record_flip_trace(model, steps, dt), scheme, k, shards, jobs, clamp
    )


def run_sharded_trace(
    trace: FlipTrace,
    scheme: Optional[PriorityScheme] = None,
    k: int = 2,
    shards: Tuple[int, int] = (2, 2),
    jobs: int = 1,
    clamp: bool = True,
) -> List[MobilityStep]:
    """Sharded sweep over a recorded :class:`FlipTrace`.

    ``jobs`` is clamped to the shard count (an extra worker would own no
    shard) and, with ``clamp=True``, to ``os.cpu_count()``.  Inside a
    :func:`~repro.instrument.collecting` scope the groups' counters are
    merged into it, plus ``shard_redecides`` (the serial ``redecided``
    total), ``shard_flips_applied`` (the trace's flips once per group)
    and ``replica_nodes_max`` (``n``: every group holds a full copy).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    scheme = scheme or IdPriority()
    grid = ShardGrid(trace.positions, trace.radius, shape=shards)
    workers = max(1, min(jobs, grid.shard_count))
    if clamp:
        workers = max(1, min(workers, os.cpu_count() or 1))
    owned: Dict[int, Set[int]] = {group: set() for group in range(workers)}
    for node, p in trace.positions.items():
        owned[grid.owner_of(p) % workers].add(node)
    parent = os.getpid()

    def replay(group: int) -> Tuple[List[MobilityStep], Optional[dict]]:
        with collecting() as counters:
            steps = _replay_trace(trace, scheme, k, owned[group])
            counters.shard_redecides += sum(s.redecided for s in steps)
            counters.shard_flips_applied += sum(
                s.added_edges + s.removed_edges for s in steps
            )
            counters.replica_nodes_max = len(trace.positions)
        # In the parent, leaving collecting() already merged the counts
        # into the caller's scope; only a worker's counts travel back.
        return steps, None if os.getpid() == parent else counters.as_dict()

    results = run_points(
        list(owned),
        replay,
        workers,
        ShardGroupFailure,
        lambda group, _result, _redispatched: f"shard group {group}",
    )
    scope = active()
    if scope is not None:
        for _steps, counts in results.values():
            if counts is not None:
                scope.merge(InstrumentationCounters.from_dict(counts))
    return [
        replace(
            same_step[0],
            forward=tuple(sorted(chain.from_iterable(
                s.forward for s in same_step
            ))),
            redecided=sum(s.redecided for s in same_step),
        )
        for same_step in zip(*(results[group][0] for group in owned))
    ]
