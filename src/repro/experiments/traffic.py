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

Points run through the figure harness's sweep pool
(:func:`repro.experiments.parallel.run_points`), so the determinism
contract is the same: every ``(protocol, rate)`` point derives its
decision RNG from ``derive("TrafficSweep", seed, label, repr(rate))``
(:func:`traffic_point_seed`) and its arrival schedule from the traffic
model's own seeded generator, so the assembled
:class:`~repro.metrics.results.ResultTable` is byte-identical at any
``jobs`` count.  With ``jobs > 1`` points fan out over ``fork`` workers
(protocol factories may be lambdas — inherited, never pickled); a point
that fails in a worker is re-dispatched once serially before surfacing
as :class:`TrafficPointFailure`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import BroadcastProtocol
from ..graph.topology import Topology
from ..instrument import collecting
from ..metrics.results import DataPoint, ResultTable, Series
from ..metrics.stats import percentile
from ..seeds import derive
from ..sim.engine import SimulationEnvironment
from ..sim.service import (
    DEFAULT_QUEUE_CAPACITY,
    DEFAULT_TX_TIME_PER_UNIT,
    ServiceEngine,
)
from ..sim.traffic import PoissonTraffic
from .parallel import run_points

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
    """Order-independent RNG seed of one ``(protocol, rate)`` point."""
    return derive("TrafficSweep", seed, label, repr(rate))


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
        # The checks Message and ServiceEngine would make in
        # every point, made once up front so a bad setting is reported as
        # itself rather than as a failing point.
        if self.size_units < 0:
            raise ValueError(
                f"size_units must be non-negative, got {self.size_units}"
            )
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be positive, got {self.queue_capacity}"
            )
        if self.tx_time_per_unit < 0:
            raise ValueError(
                "tx_time_per_unit must be non-negative, got "
                f"{self.tx_time_per_unit}"
            )


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
        # worker count: the model's own ``traffic_seed`` takes over
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


def run_traffic_sweep(
    graph: Topology,
    protocols: Sequence[ProtocolSpec],
    config: TrafficSweepConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> ResultTable:
    """Offered-vs-delivered-load sweep over one deployment.

    One series per protocol, one point per offered rate, measured
    through the sweep pool (in-process at ``config.jobs == 1``, over
    fork workers otherwise); assembly follows spec order so worker
    completion order never leaks into the table.  Byte-identical at any
    ``config.jobs`` value.
    """
    if not protocols:
        raise ValueError("protocols must be non-empty")
    tasks: List[_Task] = [
        (series_index, rate_index)
        for series_index in range(len(protocols))
        for rate_index in range(len(config.rates))
    ]

    def describe(task: _Task, point: DataPoint, _redispatched: bool) -> str:
        return (
            f"{protocols[task[0]][0]}: rate={point.x:g} "
            f"goodput={point.mean:.4f} ({point.samples} messages)"
        )

    def failure(task: _Task, worker_traceback: str) -> TrafficPointFailure:
        return TrafficPointFailure(
            label=protocols[task[0]][0],
            rate=config.rates[task[1]],
            worker_traceback=worker_traceback,
        )

    results = run_points(
        tasks,
        lambda task: _measure_point(graph, protocols, config, task),
        config.jobs,
        failure,
        describe,
        progress,
    )
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
