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
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..algorithms.base import BroadcastProtocol
from ..core.coverage import coverage_condition
from ..core.priority import IdPriority, PriorityScheme, scheme_by_name
from ..core.views import local_view
from ..graph.fliptrace import FlipTrace
from ..graph.generators import random_connected_network
from ..graph.mobility import RandomWaypointModel, SnapshotDelta
from ..graph.topology import Topology
from ..graph.unit_disk import build_unit_disk_graph, edge_flips
from ..instrument import collecting
from ..metrics.results import DataPoint, ResultTable, Series
from ..metrics.stats import repeat_until_confident
from ..sim.engine import SimulationEnvironment, run_broadcast
from .config import FigureSpec, PanelSpec, RunSettings, SeriesSpec

__all__ = [
    "CoverageViolation",
    "MobilityStep",
    "point_seed",
    "measure_point",
    "run_panel",
    "run_figure",
    "run_mobility_sweep",
    "run_trace_sweep",
]


class CoverageViolation(AssertionError):
    """A broadcast failed to reach every node under an ideal MAC."""


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

    With ``settings.jobs > 1`` the points fan out over a process pool;
    the result is byte-identical to the serial run because every point
    seeds its own RNG via :func:`point_seed`.
    """
    if settings.jobs > 1:
        from .parallel import run_panel_parallel

        return run_panel_parallel(panel, settings, progress)
    table = ResultTable(
        title=panel.title,
        x_label="n",
        y_label="forward nodes",
    )
    for spec in panel.series:
        series = Series(label=spec.label)
        for n in panel.ns:
            # One RNG per point keeps every (series, n) measurement
            # independent and order-agnostic — the same seeds the
            # parallel harness hands its workers.
            rng = random.Random(
                point_seed(settings.seed, panel.title, spec.label, n, panel.degree)
            )
            point = measure_point(spec, n, panel.degree, settings, rng)
            series.add(point)
            if progress is not None:
                progress(
                    f"{panel.title} / {spec.label}: n={n} "
                    f"mean={point.mean:.2f} (+-{point.half_width:.2f}, "
                    f"{point.samples} runs)"
                )
        table.add_series(series)
    return table


def run_figure(
    figure: FigureSpec,
    settings: Optional[RunSettings] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ResultTable]:
    """Run every panel of a figure.

    With ``settings.jobs > 1`` all points of all panels share one process
    pool (see :mod:`repro.experiments.parallel`); output is byte-identical
    to the serial run at any worker count.
    """
    settings = settings or RunSettings()
    if settings.jobs > 1:
        from .parallel import run_figure_parallel

        return run_figure_parallel(figure, settings, progress)
    return [run_panel(panel, settings, progress) for panel in figure.panels]


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
    shards: Optional[Tuple[int, int]] = None,
    jobs: int = 1,
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

    With ``shards=(sx, sy)`` the incremental sweep's dirty-region
    re-decisions fan out over ``jobs`` fork workers across a spatial
    shard grid (see :mod:`repro.experiments.sharded`); the returned
    :class:`~repro.experiments.sharded.ShardedStep` entries carry the
    same ``step``/``time``/``forward``/``redecided``/flip-count fields
    with byte-identical values at any grid and worker count.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    scheme = scheme or IdPriority()
    if shards is not None:
        if not incremental:
            raise ValueError(
                "sharded sweeps are incremental by construction; "
                "incremental=False is only for the rebuild oracle"
            )
        from .sharded import run_sharded_mobility_sweep

        return run_sharded_mobility_sweep(
            model, steps, dt, scheme=scheme, k=k, shards=shards, jobs=jobs
        )
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
) -> List[MobilityStep]:
    """The incremental decision loop over any SnapshotDelta stream.

    Shared by the live-model sweep and the recorded-trace replay; the
    sharded driver replicates this stale-set logic exactly (its
    determinism contract depends on it).
    """
    decisions: Dict[int, bool] = {}
    metrics: Optional[Dict[int, Tuple[float, ...]]] = None
    results: List[MobilityStep] = []
    for snap in deltas:
        graph = snap.graph.topology
        if not decisions:
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
) -> List[MobilityStep]:
    """Serial incremental sweep over a recorded :class:`FlipTrace`.

    Replays the trace's flip stream through the exact decision loop of
    :func:`run_mobility_sweep` with ``incremental=True``, so a recorded
    workload can A/B schemes — and serve as the serial oracle for the
    sharded driver (:func:`repro.experiments.sharded.run_sharded_trace`)
    — without re-running the mobility model.
    """
    scheme = scheme or IdPriority()
    locality = scheme.metric_locality
    radius = None if locality is None else k + locality
    extra = () if radius is None else (radius,)
    return _incremental_sweep_over(
        trace.replay(extra_radii=extra), scheme, k, radius
    )
