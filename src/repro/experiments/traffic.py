"""Traffic sweeps: offered load versus delivered load per scheme.

The paper's figures measure forward-set size for one broadcast at a
time; a deployed network cares about what happens when broadcasts
*queue up*.  :func:`run_traffic_sweep` drives the broadcast service
(:class:`~repro.sim.service.ServiceEngine`) across a ladder of offered
Poisson loads, one series per protocol, and reports per point:

* the headline mean — **delivered load** (fully covered messages per
  simulation time unit, the service's goodput);
* per-message delivery-latency percentiles (p50/p95/p99) and the raw
  goodput/offered figures in ``DataPoint.extras``;
* optionally the merged work counters (``collect_counters=True``),
  including the service-layer pair ``queue_depth_max`` /
  ``messages_dropped``.

Determinism contract — identical to the figure harness
(:mod:`repro.experiments.parallel`): every ``(protocol, rate)`` point
derives its decision RNG from ``sha256("TrafficSweep|seed|label|rate")``
(:func:`traffic_point_seed`) and its arrival schedule from the traffic
model's own seeded generator, so the assembled
:class:`~repro.metrics.results.ResultTable` is byte-identical at any
``jobs`` count.  Points fan out over a ``fork`` process pool (protocol
factories may be lambdas — inherited, never pickled); a point that fails
in a worker is re-dispatched once serially before surfacing as
:class:`TrafficPointFailure`.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import BroadcastProtocol
from ..graph.topology import Topology
from ..instrument import collecting
from ..metrics.results import DataPoint, ResultTable, Series
from ..metrics.stats import percentile
from ..sim.engine import SimulationEnvironment
from ..sim.service import (
    DEFAULT_QUEUE_CAPACITY,
    DEFAULT_TX_TIME_PER_UNIT,
    ServiceEngine,
)
from ..sim.traffic import PoissonTraffic

__all__ = [
    "TrafficSweepConfig",
    "TrafficPointFailure",
    "run_traffic_sweep",
    "traffic_point_seed",
]

#: A sweep series: display label plus a zero-argument protocol factory
#: (a fresh protocol per point — prepared against the point's own
#: environment, exactly like the figure harness).
ProtocolSpec = Tuple[str, Callable[[], BroadcastProtocol]]

#: One unit of work: (series index, rate index).
_Task = Tuple[int, int]


def traffic_point_seed(seed: int, label: str, rate: float) -> int:
    """Order-independent RNG seed of one ``(protocol, rate)`` point.

    ``sha256("TrafficSweep|{seed}|{label}|{rate}")`` truncated to 64
    bits — the same derivation family as
    :func:`repro.experiments.runner.point_seed`, so any worker measuring
    any subset of points in any order reproduces the serial sweep.
    ``rate`` is formatted with ``repr`` to keep the digest exact.
    """
    digest = hashlib.sha256(
        f"TrafficSweep|{seed}|{label}|{rate!r}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class TrafficSweepConfig:
    """Everything one traffic sweep needs besides the deployment.

    ``rates`` is the offered-load ladder (Poisson messages per time
    unit); ``count`` messages are injected per point.  ``ttl`` and
    ``queue_capacity`` control staleness and backpressure;
    ``horizon`` optionally cuts every point off at a fixed simulation
    time (the saturation valve).
    """

    rates: Sequence[float]
    count: int = 50
    seed: int = 0
    size_units: int = 4
    ttl: Optional[float] = None
    queue_capacity: Optional[int] = DEFAULT_QUEUE_CAPACITY
    tx_time_per_unit: float = DEFAULT_TX_TIME_PER_UNIT
    horizon: Optional[float] = None
    jobs: int = 1
    collect_counters: bool = False

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("rates must be non-empty")
        if any(rate <= 0 for rate in self.rates):
            raise ValueError(f"rates must be positive, got {self.rates}")
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


class TrafficPointFailure(RuntimeError):
    """A sweep point failed twice (original dispatch plus one retry)."""

    def __init__(
        self, label: str, rate: float, worker_traceback: str
    ) -> None:
        super().__init__(
            f"traffic point ({label}, rate={rate:g}) failed after retry"
        )
        self.label = label
        self.rate = rate
        self.worker_traceback = worker_traceback


def _measure_point(
    graph: Topology,
    protocols: Sequence[ProtocolSpec],
    config: TrafficSweepConfig,
    task: _Task,
) -> DataPoint:
    """Run the service at one ``(protocol, rate)`` point."""
    series_index, rate_index = task
    label, factory = protocols[series_index]
    rate = config.rates[rate_index]
    protocol = factory()
    # A private copy per point: the topology's internal query cache is
    # warmed by whoever touches it, so sharing one graph object across
    # points would make cache-hit/miss counters depend on measurement
    # order (and thus on the worker count).
    env = SimulationEnvironment(graph.copy())
    protocol.prepare(env)
    traffic = PoissonTraffic(
        rate=rate,
        count=config.count,
        # Distinct arrival schedules per point, reproducible at any
        # worker count: the model's own sha256 derivation takes over
        # from here.
        seed=traffic_point_seed(config.seed, label, rate),
        size_units=config.size_units,
        ttl=config.ttl,
    )
    engine = ServiceEngine(
        env,
        protocol,
        traffic,
        rng=random.Random(traffic_point_seed(config.seed, label, rate) ^ 1),
        queue_capacity=config.queue_capacity,
        tx_time_per_unit=config.tx_time_per_unit,
        collect_counters=config.collect_counters,
    )
    if config.collect_counters:
        with collecting() as counters:
            outcome = engine.run(horizon=config.horizon)
    else:
        outcome = engine.run(horizon=config.horizon)
    latencies = outcome.latencies()
    extras: Dict[str, float] = {
        "offered_load": outcome.offered_load(),
        "goodput": outcome.goodput(),
        "delivered_messages": float(outcome.delivered_count),
        "dropped_events": float(outcome.messages_dropped),
        "queue_depth_max": float(outcome.queue_depth_max),
    }
    if latencies:
        extras["latency_p50"] = percentile(latencies, 50.0)
        extras["latency_p95"] = percentile(latencies, 95.0)
        extras["latency_p99"] = percentile(latencies, 99.0)
    return DataPoint(
        x=rate,
        mean=outcome.goodput(),
        half_width=0.0,
        samples=len(outcome.messages),
        counters=(counters.as_dict() if config.collect_counters else None),
        extras=extras,
    )


# Worker-side state, installed by the pool initializer (inherited through
# fork, never pickled — protocol factories may be lambdas).
_WORKER_GRAPH: Optional[Topology] = None
_WORKER_PROTOCOLS: Optional[Sequence[ProtocolSpec]] = None
_WORKER_CONFIG: Optional[TrafficSweepConfig] = None


def _init_worker(
    graph: Topology,
    protocols: Sequence[ProtocolSpec],
    config: TrafficSweepConfig,
) -> None:
    global _WORKER_GRAPH, _WORKER_PROTOCOLS, _WORKER_CONFIG
    _WORKER_GRAPH = graph
    _WORKER_PROTOCOLS = protocols
    _WORKER_CONFIG = config


def _worker_measure(task: _Task) -> Tuple[_Task, DataPoint]:
    assert (
        _WORKER_GRAPH is not None
        and _WORKER_PROTOCOLS is not None
        and _WORKER_CONFIG is not None
    )
    return task, _measure_point(
        _WORKER_GRAPH, _WORKER_PROTOCOLS, _WORKER_CONFIG, task
    )


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _measure_all(
    graph: Topology,
    protocols: Sequence[ProtocolSpec],
    config: TrafficSweepConfig,
    progress: Optional[Callable[[str], None]],
) -> Dict[_Task, DataPoint]:
    tasks: List[_Task] = [
        (series_index, rate_index)
        for series_index in range(len(protocols))
        for rate_index in range(len(config.rates))
    ]
    results: Dict[_Task, DataPoint] = {}

    def report(task: _Task, point: DataPoint) -> None:
        if progress is None:
            return
        label = protocols[task[0]][0]
        progress(
            f"{label}: rate={point.x:g} goodput={point.mean:.4f} "
            f"({point.samples} messages)"
        )

    context = _fork_context() if config.jobs > 1 else None
    if context is None:
        if config.jobs > 1 and progress is not None:
            progress("fork start method unavailable; running points serially")
        for task in tasks:
            results[task] = _measure_point(graph, protocols, config, task)
            report(task, results[task])
        return results

    workers = min(config.jobs, len(tasks)) or 1
    failed_once: List[Tuple[_Task, BaseException]] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(graph, protocols, config),
    ) as pool:
        pending = {pool.submit(_worker_measure, task): task for task in tasks}
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                task = pending.pop(future)
                error = future.exception()
                if error is not None:
                    failed_once.append((task, error))
                    continue
                returned_task, point = future.result()
                results[returned_task] = point
                report(returned_task, point)
    for task, error in failed_once:
        try:
            results[task] = _measure_point(graph, protocols, config, task)
        except Exception as exc:
            raise TrafficPointFailure(
                label=protocols[task[0]][0],
                rate=config.rates[task[1]],
                worker_traceback="".join(
                    traceback.format_exception(
                        type(error), error, error.__traceback__
                    )
                ),
            ) from exc
        report(task, results[task])
    return results


def run_traffic_sweep(
    graph: Topology,
    protocols: Sequence[ProtocolSpec],
    config: TrafficSweepConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> ResultTable:
    """Offered-vs-delivered-load sweep over one deployment.

    One series per protocol, one point per offered rate; assembly
    follows spec order so worker completion order never leaks into the
    table.  Byte-identical at any ``config.jobs`` value.
    """
    if not protocols:
        raise ValueError("protocols must be non-empty")
    results = _measure_all(graph, protocols, config, progress)
    table = ResultTable(
        title=(
            f"Broadcast service saturation (n={graph.node_count()}, "
            f"{config.count} messages/point)"
        ),
        x_label="offered load (msgs/time)",
        y_label="delivered load (msgs/time)",
    )
    for series_index, (label, _factory) in enumerate(protocols):
        series = Series(label=label)
        for rate_index in range(len(config.rates)):
            series.add(results[(series_index, rate_index)])
        table.add_series(series)
    return table
