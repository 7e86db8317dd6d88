"""Tests for the sweep pool behind figure (and traffic) sweeps.

The contract under test: results are byte-identical at any worker count,
a point that fails in a worker — or whose worker dies — is re-dispatched
once in the parent, and a point that fails twice surfaces as a
structured ``PointFailure``.
"""

import contextlib
import multiprocessing
import os
import random
import signal

import pytest

from repro.algorithms.base import Timing
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.experiments.config import PanelSpec, RunSettings, SeriesSpec
from repro.experiments.export import tables_to_json
from repro.experiments.figures import fig16_backoff
from repro.experiments.parallel import PointFailure
from repro.experiments.runner import run_figure, run_panel
from repro.experiments.traffic import TrafficSweepConfig, run_traffic_sweep
from repro.graph.generators import random_connected_network

FAST = dict(min_runs=4, max_runs=6, relative_half_width=0.5, seed=7)


def _fr_protocol():
    return GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)


def _worker_only_bomb():
    # Fails only inside a pool worker; the parent's retry succeeds.
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected worker crash")
    return _fr_protocol()


def _always_bomb():
    raise RuntimeError("injected persistent failure")


def _dies_in_worker(factory):
    # Kills the whole worker process (no exception, no cleanup), which
    # breaks the pool; the parent's re-dispatch builds the protocol fine.
    def build():
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return factory()

    return build


def _figure_table(factory, jobs):
    return run_panel(_panel(factory), RunSettings(**FAST, jobs=jobs))


def _traffic_table(factory, jobs):
    graph = random_connected_network(25, 6.0, random.Random(71)).topology
    config = TrafficSweepConfig(
        rates=(0.5, 2.0), count=10, seed=9, size_units=4, jobs=jobs
    )
    return run_traffic_sweep(graph, (("flooding", factory),), config)


@contextlib.contextmanager
def _no_hang(seconds: int = 60):
    def hung(signum, frame):
        raise AssertionError("sweep pool hung after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _panel(factory, ns=(15, 20)) -> PanelSpec:
    return PanelSpec(
        title="parallel test panel",
        degree=6.0,
        ns=tuple(ns),
        series=(SeriesSpec("FR", factory),),
    )


class TestDeterminism:
    def test_jobs_1_2_4_byte_identical(self):
        figure = fig16_backoff(ns=[15, 20], degrees=[6.0])
        payloads = [
            tables_to_json(run_figure(figure, RunSettings(**FAST, jobs=jobs)))
            for jobs in (1, 2, 4)
        ]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_run_panel_delegates_to_parallel(self):
        panel = _panel(_fr_protocol)
        serial = run_panel(panel, RunSettings(**FAST, jobs=1))
        threaded = run_panel(panel, RunSettings(**FAST, jobs=2))
        assert tables_to_json([serial]) == tables_to_json([threaded])

    def test_settings_reject_zero_jobs(self):
        with pytest.raises(ValueError):
            RunSettings(jobs=0)

    @pytest.mark.parametrize(
        "overrides, rejected",
        [
            (dict(min_runs=1), True),
            (dict(min_runs=0), True),
            (dict(min_runs=5, max_runs=4), True),
            (dict(confidence=0.0), True),
            (dict(confidence=1.0), True),
            (dict(confidence=-0.5), True),
            (dict(min_runs=2, max_runs=2), False),
            (dict(confidence=0.999), False),
        ],
    )
    def test_settings_reject_what_the_stopping_rule_rejects(
        self, overrides, rejected
    ):
        # Rejected up front, not as a point failing in every worker; the
        # boundary values the stopping rule accepts stay accepted.
        if rejected:
            with pytest.raises(ValueError):
                RunSettings(**overrides)
        else:
            RunSettings(**overrides)


class TestInstrumentedParallel:
    def test_jobs_4_counters_equal_serial_exactly(self):
        panel = _panel(_fr_protocol)
        serial = run_panel(panel, RunSettings(**FAST, jobs=1, instrument=True))
        pooled = run_panel(panel, RunSettings(**FAST, jobs=4, instrument=True))
        # Per-point counters ship back from the workers inside the
        # DataPoints and must equal the serial run field for field —
        # point by point and in the merged totals.
        for serial_series, pooled_series in zip(serial.series, pooled.series):
            for serial_point, pooled_point in zip(
                serial_series.points, pooled_series.points
            ):
                assert serial_point.counters is not None
                assert serial_point.counters == pooled_point.counters
        assert serial.total_counters() == pooled.total_counters()
        assert serial.total_counters()["transmissions"] > 0

    def test_uninstrumented_points_carry_no_counters(self):
        panel = _panel(_fr_protocol, ns=(15,))
        table = run_panel(panel, RunSettings(**FAST, jobs=2))
        assert all(
            point.counters is None
            for series in table.series
            for point in series.points
        )


class TestCrashRecovery:
    def test_worker_crash_is_redispatched_once(self):
        panel = _panel(_worker_only_bomb)
        messages = []
        table = run_panel(
            panel, RunSettings(**FAST, jobs=2), progress=messages.append
        )
        # Every point failed in its worker, was retried in the parent, and
        # the retried results still match a plain serial run.
        reference = run_panel(_panel(_fr_protocol), RunSettings(**FAST, jobs=1))
        assert tables_to_json([table]) == tables_to_json([reference])
        assert any("[re-dispatched]" in message for message in messages)

    def test_persistent_failure_surfaces_structured_error(self):
        panel = _panel(_always_bomb, ns=(15,))
        with pytest.raises(PointFailure) as excinfo:
            run_panel(panel, RunSettings(**FAST, jobs=2))
        failure = excinfo.value
        assert failure.panel_title == "parallel test panel"
        assert failure.label == "FR"
        assert failure.n == 15
        assert failure.degree == 6.0
        assert "injected persistent failure" in failure.worker_traceback
        assert isinstance(failure.__cause__, RuntimeError)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the sweep pool needs the fork start method",
)
@pytest.mark.parametrize(
    "run_table, factory",
    [(_figure_table, _fr_protocol), (_traffic_table, Flooding)],
    ids=["figure", "traffic"],
)
def test_dead_worker_breaks_pool_and_every_point_is_redispatched(
    run_table, factory
):
    reference = run_table(factory, jobs=1)
    with _no_hang():
        table = run_table(_dies_in_worker(factory), jobs=2)
    assert tables_to_json([table]) == tables_to_json([reference])


class TestProgressReporting:
    def test_progress_runs_in_parent(self):
        # The callback is a closure over a local list — unpicklable state
        # that must never cross the process boundary.
        messages = []
        figure = fig16_backoff(ns=[15], degrees=[6.0])
        run_figure(
            figure, RunSettings(**FAST, jobs=2), progress=messages.append
        )
        assert len(messages) == 4  # two hop panels x two series x one n
        assert all("n=15" in message for message in messages)
