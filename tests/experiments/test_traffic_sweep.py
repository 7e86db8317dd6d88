"""Traffic sweep harness: jobs-count determinism and counter merging.

The contract mirrors the figure harness: the assembled table — means,
extras, and per-point instrumentation counters — is byte-identical at
any ``jobs`` value, and a point that keeps failing surfaces as a
structured :class:`TrafficPointFailure`.
"""

import multiprocessing
import random

import pytest

from repro.algorithms.base import Timing
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.experiments.export import tables_to_json
from repro.experiments.traffic import (
    TrafficPointFailure,
    TrafficSweepConfig,
    run_traffic_sweep,
    traffic_point_seed,
)
from repro.graph.generators import random_connected_network

RATES = (0.5, 2.0)

PROTOCOLS = (
    ("flooding", Flooding),
    ("FR", lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)),
)


@pytest.fixture(scope="module")
def graph():
    return random_connected_network(25, 6.0, random.Random(71)).topology


def _config(**overrides):
    base = dict(rates=RATES, count=10, seed=9, size_units=4)
    base.update(overrides)
    return TrafficSweepConfig(**base)


class TestDeterminism:
    def test_jobs_1_2_byte_identical(self, graph):
        payloads = [
            tables_to_json(
                [run_traffic_sweep(graph, PROTOCOLS, _config(jobs=jobs))]
            )
            for jobs in (1, 2)
        ]
        assert payloads[0] == payloads[1]

    def test_point_seed_is_order_free(self):
        assert traffic_point_seed(9, "FR", 2.0) == traffic_point_seed(
            9, "FR", 2.0
        )
        assert traffic_point_seed(9, "FR", 2.0) != traffic_point_seed(
            9, "flooding", 2.0
        )


class TestInstrumentedSweep:
    def test_parallel_counters_equal_serial_exactly(self, graph):
        serial = run_traffic_sweep(
            graph, PROTOCOLS, _config(jobs=1, collect_counters=True)
        )
        pooled = run_traffic_sweep(
            graph, PROTOCOLS, _config(jobs=2, collect_counters=True)
        )
        for serial_series, pooled_series in zip(
            serial.series, pooled.series
        ):
            for serial_point, pooled_point in zip(
                serial_series.points, pooled_series.points
            ):
                assert serial_point.counters is not None
                assert serial_point.counters == pooled_point.counters
        # The merged totals over the whole sweep — the jobs=N merge —
        # must equal the serial totals field for field.
        assert serial.total_counters() == pooled.total_counters()
        assert serial.total_counters()["transmissions"] > 0
        assert "queue_depth_max" in serial.total_counters()

    def test_epoch_reuses_merge_as_a_sum(self, graph):
        serial = run_traffic_sweep(
            graph, PROTOCOLS, _config(jobs=1, collect_counters=True)
        )
        pooled = run_traffic_sweep(
            graph, PROTOCOLS, _config(jobs=2, collect_counters=True)
        )
        per_point = [
            point.counters["coverage_epoch_reuses"]
            for series in serial.series
            for point in series.points
        ]
        total = serial.total_counters()["coverage_epoch_reuses"]
        # Many messages per deployment: the epoch shortcut fires, and the
        # totals (serial or merged from workers) are the per-point sum.
        assert total > 0
        assert total == sum(per_point)
        assert pooled.total_counters()["coverage_epoch_reuses"] == total

    def test_extras_carry_service_metrics(self, graph):
        table = run_traffic_sweep(graph, PROTOCOLS, _config())
        for series in table.series:
            for point in series.points:
                extras = point.extras
                assert extras is not None
                for key in (
                    "offered_load",
                    "goodput",
                    "delivered_messages",
                    "dropped_events",
                    "queue_depth_max",
                ):
                    assert key in extras
                assert point.mean == extras["goodput"]
                if "latency_p50" in extras:
                    assert (
                        extras["latency_p50"]
                        <= extras["latency_p95"]
                        <= extras["latency_p99"]
                    )

    def test_extras_survive_json_export(self, graph):
        table = run_traffic_sweep(
            graph, PROTOCOLS[:1], _config(rates=(1.0,))
        )
        payload = tables_to_json([table])
        assert '"extras"' in payload
        assert '"goodput"' in payload


def _worker_only_bomb():
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected worker crash")
    return Flooding()


def _always_bomb():
    raise RuntimeError("injected persistent failure")


class TestCrashRecovery:
    def test_worker_crash_is_redispatched_once(self, graph):
        flaky = (("flooding", _worker_only_bomb),)
        reference = run_traffic_sweep(
            graph, (("flooding", Flooding),), _config(jobs=1)
        )
        table = run_traffic_sweep(graph, flaky, _config(jobs=2))
        assert tables_to_json([table]) == tables_to_json([reference])

    def test_persistent_failure_surfaces_structured_error(self, graph):
        with pytest.raises(TrafficPointFailure) as excinfo:
            run_traffic_sweep(
                graph, (("boom", _always_bomb),), _config(jobs=2)
            )
        failure = excinfo.value
        assert failure.label == "boom"
        assert failure.rate in RATES
        assert "injected persistent failure" in failure.worker_traceback


class TestValidation:
    def test_rejects_empty_rates(self):
        with pytest.raises(ValueError):
            TrafficSweepConfig(rates=())

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TrafficSweepConfig(rates=(1.0, 0.0))

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            TrafficSweepConfig(rates=(1.0,), jobs=0)

    @pytest.mark.parametrize(
        "overrides, rejected",
        [
            (dict(ttl=0.0), True),
            (dict(ttl=-1.0), True),
            (dict(size_units=-1), True),
            (dict(tx_time_per_unit=-0.5), True),
            (dict(queue_capacity=0), True),
            (dict(ttl=None, queue_capacity=None), False),
            (dict(ttl=0.1, queue_capacity=1), False),
            (dict(size_units=0, tx_time_per_unit=0.0), False),
        ],
    )
    def test_rejects_what_the_service_rejects(self, overrides, rejected):
        # Rejected up front, not as a point failing in every worker; the
        # boundary values the service accepts stay accepted.
        if rejected:
            with pytest.raises(ValueError):
                TrafficSweepConfig(rates=(1.0,), **overrides)
        else:
            TrafficSweepConfig(rates=(1.0,), **overrides)

    def test_rejects_empty_protocols(self, graph):
        with pytest.raises(ValueError):
            run_traffic_sweep(graph, (), _config())
