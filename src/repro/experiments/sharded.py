"""Sharded mobility driver: parallel dirty-region re-decides over one
continuously running network, on O(core + halo) partial replicas.

The serial incremental sweep (:func:`repro.experiments.runner.
run_mobility_sweep` with ``incremental=True``) replays a mobile trace
through one mutable :class:`Topology` and re-decides only the dirty ball
of radius ``k + scheme.metric_locality`` per step.  This module
parallelises that *within* the trace:

* the deployment is partitioned into spatial shards
  (:class:`~repro.graph.sharding.ShardGrid` — contiguous cell blocks
  with a ``k + metric_locality``-cell routing halo);
* every shard owns a :class:`~repro.graph.sharding.ShardSubgraph` — a
  **partial replica** holding only the induced subgraph on the shard's
  *universe* (core + a wider halo of ``routing halo + decision radius
  + 1`` cells), under its own stable local
  :class:`~repro.graph.nodeindex.NodeIndex`.  Workers host the shards
  mapped to them by the pinned ``sid % workers`` affinity, so per-shard
  replica state is identical at any worker count;
* the parent routes each step's link flips to exactly the shards whose
  universe contains **both** endpoints (an edge with an endpoint
  outside the universe is not part of the induced subgraph), applied
  via :meth:`Topology.apply_delta` on the partial replica — lockstep
  apply-everything replication is gone;
* each stale node is **evaluated exactly once**: the parent checks, per
  routed shard, whether the node's decision ball of radius ``R = k +
  max(metric_locality, metric_value_radius)`` lies inside that shard's
  universe (an exact ``k_hop_mask`` containment test on the live
  graph), ships the node to the lowest *eligible* routed shard, and
  decides the rare node with no eligible shard itself on the global
  graph.  ``shard_redecides``/``handoff_redecides`` report the
  eligible-copy routing volume — the same statistic the full-replica
  engine measured by actually re-deciding every copy;
* the decision is exact on the partial replica because everything a
  forward decision reads lives inside the universe: the k-hop view
  needs ``ball(v, k)``, and each visible node ``u``'s metric value
  needs the edges inside ``ball(u, metric_value_radius)`` ⊆ ``ball(v,
  k + metric_value_radius)`` ⊆ ``ball(v, R)``.  Schemes whose values
  are not locally computable (``metric_value_radius is None``, e.g.
  the rank-ordered random-epoch draw) are rejected up front.

The split is static: the grid is pinned from the base positions for the
whole sweep.  Exactness needs only the locality property above, which
any split keeps, so the driver never re-partitions on load.

The determinism contract: for any shard grid and worker count, the
per-step forward sets are **byte-identical** to the single-process
incremental path, because (a) the stale set equals the serial stale set
exactly, (b) every stale node is decided exactly once, on a replica
equal to the induced current graph over a universe containing its whole
decision ball (or by the parent on the global graph), and (c) the
lowest-eligible-shard owner rule picks the evaluator without looking at
values.  ``jobs=1`` (or a platform
without ``fork``) hosts every shard replica in-process — the
deduplicated short-circuit: owner-only shipping already evaluates each
node once, with no pipe traffic.

Workers communicate over pipes with shard→worker affinity (shard ``s``
lives on worker ``s % workers`` for the whole sweep) — a plain task
pool would lose the warm replicas between steps.  ``clamp=True``
additionally caps workers at ``os.cpu_count()`` so an oversubscribed
box degrades to the in-process pool instead of paying fork/pipe
overhead for fake parallelism.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.priority import IdPriority, PriorityScheme
from ..graph.fliptrace import FlipTrace
from ..graph.geometry import Point
from ..graph.mobility import RandomWaypointModel, SnapshotDelta
from ..graph.sharding import ShardGrid, ShardSubgraph
from ..graph.unit_disk import build_unit_disk_graph
from ..instrument import InstrumentationCounters, collecting
from ..instrument import _STACK as _COUNTER_STACK
from .parallel import fork_context
from .runner import _forward_decision

__all__ = [
    "ShardedStep",
    "run_sharded_mobility_sweep",
    "run_sharded_trace",
]

Edge = Tuple[int, int]

#: Per-shard step payload: ``(added, removed, stale_local)`` — the flips
#: routed to the shard's universe (global ids) and the stale nodes it
#: owns this step, as local bit positions.
_ShardPayload = Tuple[Tuple[Edge, ...], Tuple[Edge, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class ShardedStep:
    """One sharded mobility step's merged forward-set snapshot.

    ``forward`` and ``redecided`` are byte-identical to the serial
    incremental path's :class:`~repro.experiments.runner.MobilityStep`
    fields; the shard-specific fields expose the routing work:
    ``shard_redecides`` counts eligible re-decision copies summed over
    shards, ``handoff_redecides`` the copies beyond each node's first
    eligible shard, ``boundary_flips`` the flips whose endpoints'
    routed shard sets span more than one shard, ``parent_redecides``
    the nodes no shard was eligible for (decided by the parent on the
    global graph).
    """

    step: int
    time: float
    forward: Tuple[int, ...]
    redecided: int
    shard_redecides: int
    handoff_redecides: int
    boundary_flips: int
    added_edges: int
    removed_edges: int
    parent_redecides: int = 0


def _route_flips(
    universes: Dict[int, Set[int]],
    added: Tuple[Edge, ...],
    removed: Tuple[Edge, ...],
) -> Dict[int, Tuple[Tuple[Edge, ...], Tuple[Edge, ...]]]:
    """Route flips to the shards whose universe holds both endpoints.

    Pure function of the universe tables and the flip lists: an edge
    with an endpoint outside a shard's universe does not exist in that
    shard's induced subgraph, so it is never shipped there.
    """
    routed: Dict[int, Tuple[Tuple[Edge, ...], Tuple[Edge, ...]]] = {}
    for sid in sorted(universes):
        members = universes[sid]
        mine_added = tuple(
            (u, v) for u, v in added if u in members and v in members
        )
        mine_removed = tuple(
            (u, v) for u, v in removed if u in members and v in members
        )
        if mine_added or mine_removed:
            routed[sid] = (mine_added, mine_removed)
    return routed


class _ShardReplica:
    """One shard's partial replica plus its decision state.

    The replica (a :class:`~repro.graph.sharding.ShardSubgraph`) and the
    memoised metric table are private — DET003 flags any outside
    mutation — and advance exclusively through :meth:`apply_step`,
    which mirrors the serial sweep: apply this step's routed flips,
    drop the metric table if anything flipped, then re-decide exactly
    the owned stale nodes on the induced subgraph.
    """

    def __init__(
        self, subgraph: ShardSubgraph, scheme: PriorityScheme, k: int
    ) -> None:
        self._replica = subgraph
        self._scheme = scheme
        self._k = k
        self._shard_metrics: Optional[Dict[int, Tuple[float, ...]]] = None

    def __len__(self) -> int:
        return len(self._replica)

    def apply_step(
        self,
        added: Tuple[Edge, ...],
        removed: Tuple[Edge, ...],
        stale_local: Tuple[int, ...],
    ) -> List[Tuple[int, bool]]:
        """Advance the replica one step and re-decide the owned nodes.

        Returns ``(global_id, forward)`` pairs — the local→global
        translation happens here, so the merge layer never sees a
        local index.
        """
        self._sync_replica(added, removed)
        return self._redecide(stale_local)

    def _sync_replica(
        self, added: Tuple[Edge, ...], removed: Tuple[Edge, ...]
    ) -> None:
        if added or removed:
            self._replica.apply_flips(added, removed)
            self._shard_metrics = None

    def _redecide(
        self, stale_local: Tuple[int, ...]
    ) -> List[Tuple[int, bool]]:
        if not stale_local:
            return []
        graph = self._replica.graph
        if self._shard_metrics is None:
            self._shard_metrics = self._scheme.metrics(graph)
        decided: List[Tuple[int, bool]] = []
        for position in stale_local:
            node = self._replica.to_global(position)
            decided.append(
                (
                    node,
                    _forward_decision(
                        graph, node, self._k, self._scheme,
                        self._shard_metrics,
                    ),
                )
            )
        return decided


class _ShardWorker:
    """The shard replicas resident on one worker, stepped in sid order.

    Lives either inside a forked child process or in-process (the
    ``workers=1`` / no-``fork`` fallback, which hosts *every* shard).
    """

    def __init__(
        self,
        subgraphs: Dict[int, ShardSubgraph],
        scheme: PriorityScheme,
        k: int,
    ) -> None:
        self._replicas: Dict[int, _ShardReplica] = {
            sid: _ShardReplica(subgraphs[sid], scheme, k)
            for sid in sorted(subgraphs)
        }

    def apply_step(
        self, payloads: Dict[int, _ShardPayload]
    ) -> List[Tuple[int, bool]]:
        """Advance every replica, decide, report.

        Owner-only shipping guarantees the per-shard decision lists are
        disjoint, so concatenating them in sid order is a merge.
        """
        decided: List[Tuple[int, bool]] = []
        for sid, replica in self._replicas.items():
            added, removed, stale_local = payloads.get(sid, ((), (), ()))
            decided.extend(replica.apply_step(added, removed, stale_local))
        if _COUNTER_STACK and self._replicas:
            peak = max(len(replica) for replica in self._replicas.values())
            scope = _COUNTER_STACK[-1]
            if peak > scope.replica_nodes_max:
                scope.replica_nodes_max = peak
        return decided


def _shard_worker_main(conn, subgraphs, scheme, k) -> None:
    """Child-process loop: receive steps, answer with decisions.

    Counters collected during the step travel back as a plain dict and
    are merged into the parent's active scope, so instrumented sharded
    sweeps aggregate to the same totals as serial ones.
    """
    worker = _ShardWorker(subgraphs, scheme, k)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        step, payloads = message
        with collecting() as counters:
            decided = worker.apply_step(payloads)
        conn.send((step, decided, counters.as_dict()))
    conn.close()


class _ForkShardPool:
    """Persistent fork-spawned workers with shard→worker affinity.

    Each child inherits its shards' subgraphs through ``fork``, so no
    replica ever travels a pipe: the wire carries only step payloads
    and decisions.
    """

    def __init__(
        self,
        context: multiprocessing.context.BaseContext,
        subgraphs: Dict[int, ShardSubgraph],
        scheme: PriorityScheme,
        k: int,
        workers: int,
    ) -> None:
        self._procs = []
        self._conns = []
        for index in range(workers):
            mine = {
                sid: subgraph
                for sid, subgraph in subgraphs.items()
                if sid % workers == index
            }
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_shard_worker_main,
                args=(child_conn, mine, scheme, k),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    @property
    def workers(self) -> int:
        return len(self._conns)

    def step(self, step: int, payloads: Dict[int, _ShardPayload]):
        """Fan one step out to every worker and gather the decisions.

        A worker receives only its own shards' payloads.  All sends
        complete before the first receive, so workers compute
        concurrently.
        """
        workers = len(self._conns)
        for index, conn in enumerate(self._conns):
            mine = {
                sid: payload
                for sid, payload in payloads.items()
                if sid % workers == index
            }
            try:
                conn.send((step, mine))
            except ConnectionError:  # BrokenPipeError: already dead
                raise self._died(index, step) from None
        decided: Dict[int, bool] = {}
        counter_payloads: List[Dict[str, int]] = []
        for index, conn in enumerate(self._conns):
            try:
                got_step, entries, counters = conn.recv()
            except (EOFError, ConnectionError):
                raise self._died(index, step) from None
            if got_step != step:
                raise RuntimeError(
                    f"shard worker {index} answered step {got_step} "
                    f"while the driver was at step {step}"
                )
            decided.update(entries)
            counter_payloads.append(counters)
        return decided, counter_payloads

    def _died(self, index: int, step: int) -> RuntimeError:
        proc = self._procs[index]
        proc.join(timeout=5)
        return RuntimeError(
            f"shard worker {index} died at step {step} "
            f"(exitcode={proc.exitcode})"
        )

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)


class _InlineShardPool:
    """In-process fallback hosting every shard replica.

    Used for ``workers=1`` (including clamped runs) and on platforms
    without the ``fork`` start method.  Owner-only shipping is already
    the deduplicated short-circuit — each stale node is decided once —
    so the driver's merge logic is identical either way; counters land
    directly in the parent's active scope (no payload round-trip).
    """

    def __init__(
        self,
        subgraphs: Dict[int, ShardSubgraph],
        scheme: PriorityScheme,
        k: int,
    ) -> None:
        self._worker = _ShardWorker(subgraphs, scheme, k)

    @property
    def workers(self) -> int:
        return 1

    def step(self, step: int, payloads: Dict[int, _ShardPayload]):
        decided = dict(self._worker.apply_step(payloads))
        return decided, []

    def close(self) -> None:
        """Nothing to tear down in-process."""


def _open_pool(
    subgraphs: Dict[int, ShardSubgraph],
    scheme: PriorityScheme,
    k: int,
    workers: int,
):
    context = fork_context() if workers > 1 else None
    if context is None:
        return _InlineShardPool(subgraphs, scheme, k)
    return _ForkShardPool(context, subgraphs, scheme, k, workers)


def _universe_members(
    grid: ShardGrid,
    positions: Dict[int, Point],
    universe_halo: int,
) -> Dict[int, List[int]]:
    """Each shard's universe: nodes within ``universe_halo`` cells of
    its core, listed in ``positions`` insertion order."""
    members: Dict[int, List[int]] = {
        sid: [] for sid in range(grid.shard_count)
    }
    for node, p in positions.items():
        for sid in grid.touching(p, halo_cells=universe_halo):
            members[sid].append(node)
    return members


def _sharded_sweep(
    base_positions: Dict[int, Point],
    radius: float,
    deltas: Iterator[SnapshotDelta],
    scheme: PriorityScheme,
    k: int,
    shards: Tuple[int, int],
    jobs: int,
    clamp: bool,
) -> List[ShardedStep]:
    """The core driver: route, fan out, merge — one delta at a time."""
    locality = scheme.metric_locality
    value_radius = scheme.metric_value_radius
    if value_radius is None:
        raise ValueError(
            f"scheme {scheme.name!r} has metric_value_radius=None: its "
            "metric values cannot be reproduced on a partial replica "
            "(use the serial incremental sweep instead)"
        )
    dirty_radius = None if locality is None else k + locality
    route_halo = k + (locality or 0)
    decision_radius = k + max(locality or 0, value_radius)
    # One extra cell of slack over the exact cell-distance bound; the
    # per-node eligibility check below is exact, so the halo width only
    # tunes how often the parent must fall back, never correctness.
    universe_halo = route_halo + decision_radius + 1
    grid = ShardGrid(
        base_positions, radius, shape=shards, halo_cells=route_halo
    )
    assignment = grid.assign(base_positions)
    workers = max(1, min(jobs, grid.shard_count))
    if clamp:
        workers = max(1, min(workers, os.cpu_count() or 1))
    base_graph = build_unit_disk_graph(base_positions, radius).topology
    members = _universe_members(grid, base_positions, universe_halo)
    subgraphs = {
        sid: ShardSubgraph.extract(sid, base_graph, mine)
        for sid, mine in members.items()
    }
    universe_sets = {sid: set(mine) for sid, mine in members.items()}
    universe_masks: Dict[int, int] = {}
    pool = _open_pool(subgraphs, scheme, k, workers)
    decisions: Dict[int, bool] = {}
    parent_metrics: Optional[Dict[int, Tuple[float, ...]]] = None
    results: List[ShardedStep] = []
    try:
        for snap in deltas:
            graph = snap.graph.topology
            added = tuple(snap.added_edges)
            removed = tuple(snap.removed_edges)
            if added or removed:
                parent_metrics = None
            if not universe_masks:
                # Masks live under the replay graph's own node index so
                # the eligibility comparison below is exact.
                index = graph.node_index()
                universe_masks = {
                    sid: index.mask_of(mine)
                    for sid, mine in universe_sets.items()
                }
            if not decisions:
                stale = list(graph.nodes())  # first step: all undecided
            elif snap.report is None:
                stale = []  # no link flipped; cached decisions stand
            elif dirty_radius is None or not snap.report.fast_path:
                stale = list(graph.nodes())
            else:
                stale = sorted(snap.report.dirty_at(dirty_radius))
            flips_by_sid = _route_flips(universe_sets, added, removed)
            stale_by_sid: Dict[int, List[int]] = {}
            shipped: List[int] = []
            parent_stale: List[int] = []
            shard_redecides = 0
            handoff = 0
            for node in stale:
                ball = graph.k_hop_mask(node, decision_radius)
                eligible = [
                    sid
                    for sid in assignment.routed[node]
                    if ball & ~universe_masks[sid] == 0
                ]
                if eligible:
                    shard_redecides += len(eligible)
                    handoff += len(eligible) - 1
                    # Owner rule: the lowest eligible shard id decides;
                    # the node ships as its local bit position there.
                    owner_sid = eligible[0]
                    stale_by_sid.setdefault(owner_sid, []).append(
                        subgraphs[owner_sid].to_local(node)
                    )
                    shipped.append(node)
                else:
                    parent_stale.append(node)
            boundary = 0
            for edge in added + removed:
                spanned = set(assignment.routed[edge[0]])
                spanned.update(assignment.routed[edge[1]])
                if len(spanned) > 1:
                    boundary += 1
            payloads: Dict[int, _ShardPayload] = {}
            for sid in set(flips_by_sid) | set(stale_by_sid):
                sid_added, sid_removed = flips_by_sid.get(sid, ((), ()))
                payloads[sid] = (
                    sid_added,
                    sid_removed,
                    tuple(stale_by_sid.get(sid, ())),
                )
            decided, counter_payloads = pool.step(snap.step, payloads)
            for node in shipped:
                decisions[node] = decided[node]
            if parent_stale:
                if parent_metrics is None:
                    parent_metrics = scheme.metrics(graph)
                for node in parent_stale:
                    decisions[node] = _forward_decision(
                        graph, node, k, scheme, parent_metrics
                    )
            if _COUNTER_STACK:
                scope = _COUNTER_STACK[-1]
                scope.shard_redecides += shard_redecides
                scope.shard_handoff_redecides += handoff
                scope.shard_boundary_flips += boundary
                for payload in counter_payloads:
                    scope.merge(InstrumentationCounters.from_dict(payload))
            results.append(
                ShardedStep(
                    step=snap.step,
                    time=snap.time,
                    forward=tuple(sorted(
                        node for node, flag in decisions.items() if flag
                    )),
                    redecided=len(stale),
                    shard_redecides=shard_redecides,
                    handoff_redecides=handoff,
                    boundary_flips=boundary,
                    added_edges=len(added),
                    removed_edges=len(removed),
                    parent_redecides=len(parent_stale),
                )
            )
    finally:
        pool.close()
    return results


def _extra_radii(scheme: PriorityScheme, k: int) -> Tuple[int, ...]:
    locality = scheme.metric_locality
    return () if locality is None else (k + locality,)


def run_sharded_mobility_sweep(
    model: RandomWaypointModel,
    steps: int,
    dt: float,
    scheme: Optional[PriorityScheme] = None,
    k: int = 2,
    shards: Tuple[int, int] = (2, 2),
    jobs: int = 1,
    clamp: bool = True,
) -> List[ShardedStep]:
    """Sharded exact forward sets across a mobility trace.

    The sharded twin of :func:`~repro.experiments.runner.
    run_mobility_sweep` — same model, same per-step forward sets (the
    determinism contract in the module docstring), with the dirty-region
    re-decisions fanned out over ``jobs`` fork workers hosting
    O(core + halo) partial replicas across a ``shards = (sx, sy)``
    grid.  ``jobs`` is clamped to the shard count (an idle worker would
    own no shard) and, with ``clamp=True``, to ``os.cpu_count()`` —
    a single effective worker runs the in-process short-circuit
    instead of a pipe-driven pool.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    scheme = scheme or IdPriority()
    base_positions = dict(model.positions())
    return _sharded_sweep(
        base_positions,
        model.radius,
        model.snapshot_deltas(dt, steps, extra_radii=_extra_radii(scheme, k)),
        scheme,
        k,
        shards,
        jobs,
        clamp,
    )


def run_sharded_trace(
    trace: FlipTrace,
    scheme: Optional[PriorityScheme] = None,
    k: int = 2,
    shards: Tuple[int, int] = (2, 2),
    jobs: int = 1,
    clamp: bool = True,
) -> List[ShardedStep]:
    """Sharded sweep over a recorded :class:`FlipTrace`.

    Replays the trace's flip stream instead of a live model, so the
    identical workload can A/B shard grids and worker counts (and be
    compared against :func:`~repro.experiments.runner.run_trace_sweep`,
    the serial incremental replay).  See
    :func:`run_sharded_mobility_sweep` for the ``clamp`` semantics.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    scheme = scheme or IdPriority()
    return _sharded_sweep(
        trace.positions,
        trace.radius,
        trace.replay(extra_radii=_extra_radii(scheme, k)),
        scheme,
        k,
        shards,
        jobs,
        clamp,
    )
