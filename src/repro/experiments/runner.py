"""Executes experiment specs: sampling, simulation, aggregation.

One *sample* = one fresh random connected deployment + one random source +
one broadcast of the protocol under test; the measured value is the
forward-node count.  Samples repeat under the paper's
confidence-interval stopping rule (:func:`repro.metrics.stats.
repeat_until_confident`).  Every sample also verifies full coverage —
under an ideal MAC a correct protocol must deliver to every node — so the
experiment harness doubles as a system-level correctness check.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, replace
from itertools import chain
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..algorithms.base import BroadcastProtocol
from ..core.coverage import coverage_condition
from ..core.priority import IdPriority, PriorityScheme, scheme_by_name
from ..core.views import local_view
from ..graph.fliptrace import FlipTrace
from ..graph.generators import random_connected_network
from ..graph.mobility import RandomWaypointModel, SnapshotDelta
from ..graph.topology import Topology
from ..graph.unit_disk import build_unit_disk_graph, edge_flips
from ..instrument import InstrumentationCounters, active, collecting
from ..metrics.results import DataPoint, ResultTable, Series
from ..metrics.stats import repeat_until_confident
from ..sim.engine import SimulationEnvironment, run_broadcast
from .config import FigureSpec, PanelSpec, RunSettings, SeriesSpec
from .parallel import PointFailure, run_points

__all__ = [
    "CoverageViolation",
    "MobilityStep",
    "ShardGroupFailure",
    "point_seed",
    "measure_point",
    "run_panel",
    "run_figure",
    "run_mobility_sweep",
    "run_trace_sweep",
]


#: One figure point: indices into the panel list and its series, plus n
#: — plain ints, so it crosses the process boundary trivially.
_Task = Tuple[int, int, int]


class CoverageViolation(AssertionError):
    """A broadcast failed to reach every node under an ideal MAC."""


class ShardGroupFailure(RuntimeError):
    """A worker group's trace replay failed twice (original dispatch plus
    one retry); the underlying exception is chained as ``__cause__``."""

    def __init__(self, group: int, worker_traceback: str) -> None:
        super().__init__(f"shard worker group {group} failed after retry")
        self.group = group
        self.worker_traceback = worker_traceback


def point_seed(
    seed: int, panel_title: str, label: str, n: int, degree: float
) -> int:
    """The deterministic RNG seed of one ``(panel, series, n, d)`` point.

    Every measurement point draws from its own ``random.Random`` seeded by
    a ``sha256(seed|panel|label|n|degree)`` digest (hashlib, not the salted
    built-in ``hash``), so results are bit-identical no matter which
    process measures the point, in what order, or at what worker count —
    the determinism contract of the parallel harness.
    """
    digest = hashlib.sha256(
        f"{seed}|{panel_title}|{label}|{n}|{degree!r}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _one_sample(
    spec: SeriesSpec,
    n: int,
    degree: float,
    rng: random.Random,
    check_coverage: bool,
) -> float:
    network = random_connected_network(n, degree, rng)
    scheme = scheme_by_name(spec.scheme_name)
    env = SimulationEnvironment(network.topology, scheme)
    protocol = spec.protocol_factory()
    protocol.prepare(env)
    source = rng.choice(network.topology.nodes())
    outcome = run_broadcast(
        network.topology, protocol, source, rng=rng, env=env
    )
    if check_coverage and len(outcome.delivered) != n:
        missing = sorted(set(network.topology.nodes()) - outcome.delivered)
        raise CoverageViolation(
            f"{spec.label}: broadcast from {source} missed nodes {missing} "
            f"(n={n}, d={degree})"
        )
    return float(outcome.forward_count)


def measure_point(
    spec: SeriesSpec,
    n: int,
    degree: float,
    settings: RunSettings,
    rng: Optional[random.Random] = None,
) -> DataPoint:
    """Measure one (algorithm, n, d) point under the stopping rule.

    Without an explicit ``rng`` the fallback is derived from a
    ``(seed, label, n, degree)`` digest, so two different points measured
    back-to-back never replay the same sample stream (a bare
    ``Random(settings.seed)`` would correlate every point).

    With ``settings.instrument`` the point's samples run inside a
    :func:`repro.instrument.collecting` scope and the aggregated counts
    travel on ``DataPoint.counters`` — per point, so parallel sweeps
    merge to exactly the serial totals.
    """
    if rng is None:
        rng = random.Random(point_seed(settings.seed, "", spec.label, n, degree))

    def sample_all() -> object:
        return repeat_until_confident(
            lambda: _one_sample(spec, n, degree, rng, settings.check_coverage),
            confidence=settings.confidence,
            relative_half_width=settings.relative_half_width,
            min_runs=settings.min_runs,
            max_runs=settings.max_runs,
        )

    counter_payload: Optional[Dict[str, int]] = None
    if settings.instrument:
        with collecting() as counters:
            result = sample_all()
        counter_payload = counters.as_dict()
    else:
        result = sample_all()
    return DataPoint(
        x=n,
        mean=result.mean,
        half_width=result.interval.half_width,
        samples=len(result.samples),
        counters=counter_payload,
    )


def run_panel(
    panel: PanelSpec,
    settings: RunSettings,
    progress: Optional[Callable[[str], None]] = None,
) -> ResultTable:
    """Run every series of a panel over its node-count sweep.

    The points go through the sweep pool
    (:func:`repro.experiments.parallel.run_points`): in-process at
    ``settings.jobs == 1``, over that many fork workers otherwise.  The
    result is byte-identical at any ``jobs`` because every point seeds
    its own RNG via :func:`point_seed`.
    """
    return _run_panels([panel], settings, progress)[0]


def run_figure(
    figure: FigureSpec,
    settings: Optional[RunSettings] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ResultTable]:
    """Run every panel of a figure.

    All points of all panels enter one sweep pool
    (:mod:`repro.experiments.parallel`), so a slow panel cannot
    serialise the sweep; tables come back in panel order and are
    byte-identical at any ``settings.jobs``.
    """
    return _run_panels(figure.panels, settings or RunSettings(), progress)


def _run_panels(
    panels: Sequence[PanelSpec],
    settings: RunSettings,
    progress: Optional[Callable[[str], None]],
) -> List[ResultTable]:
    tasks: List[_Task] = [
        (panel_index, series_index, n)
        for panel_index, panel in enumerate(panels)
        for series_index in range(len(panel.series))
        for n in panel.ns
    ]

    def measure(task: _Task) -> DataPoint:
        panel_index, series_index, n = task
        panel = panels[panel_index]
        spec = panel.series[series_index]
        # One RNG per point keeps every (series, n) measurement
        # independent and order-agnostic, whichever process runs it.
        rng = random.Random(
            point_seed(settings.seed, panel.title, spec.label, n, panel.degree)
        )
        return measure_point(spec, n, panel.degree, settings, rng)

    def describe(task: _Task, point: DataPoint, redispatched: bool) -> str:
        panel_index, series_index, n = task
        panel = panels[panel_index]
        return (
            f"{panel.title} / {panel.series[series_index].label}: n={n} "
            f"mean={point.mean:.2f} (+-{point.half_width:.2f}, "
            f"{point.samples} runs)"
            + (" [re-dispatched]" if redispatched else "")
        )

    def failure(task: _Task, worker_traceback: str) -> PointFailure:
        panel_index, series_index, n = task
        panel = panels[panel_index]
        return PointFailure(
            panel_title=panel.title,
            label=panel.series[series_index].label,
            n=n,
            degree=panel.degree,
            worker_traceback=worker_traceback,
        )

    results = run_points(
        tasks, measure, settings.jobs, failure, describe, progress
    )
    tables: List[ResultTable] = []
    for panel_index, panel in enumerate(panels):
        table = ResultTable(
            title=panel.title, x_label="n", y_label="forward nodes"
        )
        for series_index, spec in enumerate(panel.series):
            series = Series(label=spec.label)
            for n in panel.ns:
                series.add(results[(panel_index, series_index, n)])
            table.add_series(series)
        tables.append(table)
    return tables


@dataclass(frozen=True)
class MobilityStep:
    """One mobility step's forward-set snapshot.

    ``forward`` is the exact forward set under the generic scheme's
    coverage condition (Theorem 1: every node whose k-hop local view
    does *not* certify coverage forwards); ``redecided`` counts how many
    coverage conditions were actually evaluated this step (``n`` on the
    rebuild path, the dirty-set size on the incremental path).
    """

    step: int
    time: float
    forward: Tuple[int, ...]
    redecided: int
    added_edges: int
    removed_edges: int


def _forward_decision(
    graph: Topology,
    node: int,
    k: int,
    scheme: PriorityScheme,
    metrics: Dict[int, Tuple[float, ...]],
) -> bool:
    view = local_view(graph, node, k, scheme, metrics=metrics)
    return not coverage_condition(view, node)


def run_mobility_sweep(
    model: RandomWaypointModel,
    steps: int,
    dt: float,
    scheme: Optional[PriorityScheme] = None,
    k: int = 2,
    incremental: bool = True,
) -> List[MobilityStep]:
    """Exact forward sets across a mobility trace, one entry per step.

    With ``incremental=True`` the sweep reuses **one mutable**
    :class:`Topology` across adjacent steps: each step's link flips go
    through :meth:`Topology.apply_delta`
    (via :meth:`~repro.graph.mobility.RandomWaypointModel.
    snapshot_deltas`), and only nodes inside the dirty ball of radius
    ``k + scheme.metric_locality`` re-evaluate their coverage condition
    — a changed edge can alter a cached decision at ``v`` only if an
    endpoint lies within ``k`` hops of some node visible to ``v``
    (Definition 2 locality) or within ``metric_locality`` hops of one
    (metric drift), i.e. within ``k + metric_locality`` of ``v``.
    Schemes that leave ``metric_locality`` as ``None`` re-decide every
    node per step, which is always safe.

    With ``incremental=False`` every step rebuilds the unit-disk graph
    from scratch and re-decides all nodes — the oracle the benchmark's
    equivalence gate compares against.  Both paths drive the model's RNG
    identically (only :meth:`~repro.graph.mobility.RandomWaypointModel.
    advance` draws), so equally-seeded models produce byte-identical
    ``forward`` tuples either way.

    To split the re-decisions over worker processes, record the trace
    first: ``run_trace_sweep(record_flip_trace(model, steps, dt),
    scheme, k, jobs=N)`` returns the same steps as the incremental path.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    scheme = scheme or IdPriority()
    if incremental:
        return _mobility_sweep_incremental(model, steps, dt, scheme, k)
    return _mobility_sweep_rebuild(model, steps, dt, scheme, k)


def _mobility_sweep_incremental(
    model: RandomWaypointModel,
    steps: int,
    dt: float,
    scheme: PriorityScheme,
    k: int,
) -> List[MobilityStep]:
    locality = scheme.metric_locality
    radius = None if locality is None else k + locality
    extra = () if radius is None else (radius,)
    return _incremental_sweep_over(
        model.snapshot_deltas(dt, steps, extra_radii=extra), scheme, k, radius
    )


def _incremental_sweep_over(
    deltas: Iterable[SnapshotDelta],
    scheme: PriorityScheme,
    k: int,
    radius: Optional[int],
    owned: Optional[AbstractSet[int]] = None,
) -> List[MobilityStep]:
    """The incremental decision loop over any SnapshotDelta stream.

    Shared by the live-model sweep and the recorded-trace replay (one
    loop per worker group at ``jobs > 1``).  With ``owned`` the loop
    decides (and counts in ``redecided``) only the stale nodes in that
    set, so ``forward`` lists owned nodes only; the stale set and the
    metric refreshes are the serial ones, so a partition of the nodes
    into ``owned`` sets yields forward sets whose union is the serial
    answer.
    """
    decisions: Dict[int, bool] = {}
    metrics: Optional[Dict[int, Tuple[float, ...]]] = None
    results: List[MobilityStep] = []
    for index, snap in enumerate(deltas):
        graph = snap.graph.topology
        if index == 0:
            stale = graph.nodes()  # first step: everything undecided
        elif snap.report is None:
            stale = []  # no link flipped; every cached decision stands
        elif radius is None or not snap.report.fast_path:
            stale = graph.nodes()
        else:
            stale = sorted(snap.report.dirty_at(radius))
        if metrics is None or (snap.report is not None and stale):
            # Metric tables are O(n) for the built-in schemes — cheap
            # next to view extraction, and only rebuilt on flip steps.
            metrics = scheme.metrics(graph)
        if owned is not None:
            stale = [node for node in stale if node in owned]
        for node in stale:
            decisions[node] = _forward_decision(graph, node, k, scheme, metrics)
        results.append(
            MobilityStep(
                step=snap.step,
                time=snap.time,
                forward=tuple(sorted(
                    node for node, flag in decisions.items() if flag
                )),
                redecided=len(stale),
                added_edges=len(snap.added_edges),
                removed_edges=len(snap.removed_edges),
            )
        )
    return results


def _mobility_sweep_rebuild(
    model: RandomWaypointModel,
    steps: int,
    dt: float,
    scheme: PriorityScheme,
    k: int,
) -> List[MobilityStep]:
    # Diff step 0 against the pre-advance positions, exactly like the
    # incremental path's baseline snapshot, so flip counts line up.
    previous = build_unit_disk_graph(model.positions(), model.radius).topology
    results: List[MobilityStep] = []
    for step in range(steps):
        model.advance(dt)
        positions = model.positions()
        added, removed = edge_flips(positions, model.radius, previous)
        graph = build_unit_disk_graph(positions, model.radius).topology
        metrics = scheme.metrics(graph)
        results.append(
            MobilityStep(
                step=step,
                time=model.time,
                forward=tuple(sorted(
                    node for node in graph.nodes()
                    if _forward_decision(graph, node, k, scheme, metrics)
                )),
                redecided=graph.node_count(),
                added_edges=len(added),
                removed_edges=len(removed),
            )
        )
        previous = graph
    return results


def run_trace_sweep(
    trace: FlipTrace,
    scheme: Optional[PriorityScheme] = None,
    k: int = 2,
    jobs: int = 1,
) -> List[MobilityStep]:
    """Incremental sweep over a recorded :class:`FlipTrace`.

    Replays the trace's flip stream through the exact decision loop of
    :func:`run_mobility_sweep` with ``incremental=True``, so a recorded
    workload can A/B schemes without re-running the mobility model.

    With ``jobs > 1`` the re-decisions split over ``groups = min(jobs,
    n)`` worker groups on the sweep pool
    (:func:`repro.experiments.parallel.run_points`).  Group ``g`` owns
    ``sorted(trace.positions)[g::groups]``; it replays the whole trace on
    its own topology copy and decides only the stale nodes it owns.  A
    node's decision reads only its k-hop view (Definition 2) and every
    group sees the serial stale set and metric table, so the merged
    steps — the sorted union of the groups' forward sets, the sum of
    their ``redecided`` — equal the ``jobs=1`` steps byte for byte, for
    every priority scheme.  A group whose worker raises or dies is
    re-dispatched once in the parent; a second failure raises
    :class:`ShardGroupFailure`.  Inside a
    :func:`~repro.instrument.collecting` scope the groups' counters are
    merged into it: decision-side counts equal the serial sweep's, and
    topology-side counts (``delta_applies`` and the like) are the
    serial ones times the groups.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    scheme = scheme or IdPriority()
    nodes = sorted(trace.positions)
    groups = min(jobs, len(nodes))
    if groups <= 1:
        return _replay_trace(trace, scheme, k)
    owned = {group: frozenset(nodes[group::groups]) for group in range(groups)}
    parent = os.getpid()

    def replay(group: int) -> Tuple[List[MobilityStep], Optional[dict]]:
        with collecting() as counters:
            steps = _replay_trace(trace, scheme, k, owned[group])
        # In the parent, leaving collecting() already merged the counts
        # into the caller's scope; only a worker's counts travel back.
        return steps, None if os.getpid() == parent else counters.as_dict()

    results = run_points(
        list(owned),
        replay,
        groups,
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


def _replay_trace(
    trace: FlipTrace,
    scheme: PriorityScheme,
    k: int,
    owned: Optional[AbstractSet[int]] = None,
) -> List[MobilityStep]:
    locality = scheme.metric_locality
    radius = None if locality is None else k + locality
    extra = () if radius is None else (radius,)
    return _incremental_sweep_over(
        trace.replay(extra_radii=extra), scheme, k, radius, owned
    )
