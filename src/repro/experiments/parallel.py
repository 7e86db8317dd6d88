"""The one point pool behind every experiment sweep.

Figure sweeps (:func:`repro.experiments.runner.run_figure`), traffic
sweeps (:func:`repro.experiments.traffic.run_traffic_sweep`) and the
worker groups of a trace sweep
(:func:`repro.experiments.runner.run_trace_sweep` with ``jobs > 1``)
are lists of mutually independent measurement points; :func:`run_points` measures
such a list at any ``jobs`` value.  Three properties make it safe to use
for reproduction work:

* **Order-independent determinism** — every caller's ``measure`` seeds
  its own ``random.Random`` from a per-point :func:`repro.seeds.derive`
  seed (:func:`repro.experiments.runner.point_seed`,
  :func:`repro.experiments.traffic.traffic_point_seed`) and results come
  back keyed by task, so the assembled
  :class:`~repro.metrics.results.ResultTable` is byte-identical at any
  worker count, including the ``jobs=1`` in-process loop.
* **Crash recovery** — with ``jobs > 1``, a point whose worker raises (or
  whose worker process dies, breaking the pool) is re-dispatched once,
  serially in the parent; a second failure surfaces as the caller's
  structured error (:class:`PointFailure` for figures).  At ``jobs=1``
  the measurement's own exception propagates unchanged.
* **Pickle-safe progress** — workers only ship ``(task, result)``
  tuples of plain values back to the parent; the parent renders
  progress messages and invokes the (unpicklable) callback itself.
  Instrumentation counters ride inside each shipped ``DataPoint`` as a
  plain dict, collected per point in whichever process measured it —
  merging per-point counters therefore gives exactly the serial totals at
  any worker count.

Worker processes are created with the ``fork`` start method: ``measure``
is typically a closure over specs holding lambda protocol factories,
which cannot be pickled but is inherited through ``fork`` for free.  On
platforms without ``fork`` the pool degrades to the serial loop
(reporting so through the progress callback) rather than failing.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = ["PointFailure", "fork_context", "run_points"]

#: One unit of work: a caller-defined tuple of plain values, so it
#: crosses the process boundary trivially and keys the results.
Task = TypeVar("Task", bound=Hashable)
#: What measuring one task returns (a ``DataPoint`` for figure sweeps).
Result = TypeVar("Result")


class PointFailure(RuntimeError):
    """A measurement point failed twice (original dispatch plus one retry).

    Carries enough structure to re-run the point by hand; the underlying
    exception is chained as ``__cause__`` and its traceback preserved in
    :attr:`worker_traceback`.
    """

    def __init__(
        self,
        panel_title: str,
        label: str,
        n: int,
        degree: float,
        worker_traceback: str,
    ) -> None:
        super().__init__(
            f"point ({label}, n={n}, d={degree:g}) of panel "
            f"{panel_title!r} failed after retry"
        )
        self.panel_title = panel_title
        self.label = label
        self.n = n
        self.degree = degree
        self.worker_traceback = worker_traceback


def fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` on platforms
    without it (callers then fall back to running in-process)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


# Worker-side state, installed by the pool initializer.  Under the fork
# start method the initializer arguments are inherited, never pickled, so
# ``measure`` may close over lambda protocol factories.
_WORKER_MEASURE: Optional[Callable[[Hashable], object]] = None


def _init_worker(measure: Callable[[Hashable], object]) -> None:
    global _WORKER_MEASURE
    _WORKER_MEASURE = measure


def _worker_measure(task: Hashable) -> Tuple[Hashable, object]:
    assert _WORKER_MEASURE is not None
    return task, _WORKER_MEASURE(task)


def run_points(
    tasks: Sequence[Task],
    measure: Callable[[Task], Result],
    jobs: int,
    failure: Callable[[Task, str], Exception],
    describe: Callable[[Task, Result, bool], str],
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[Task, Result]:
    """Measure every task, over ``jobs`` fork workers or in-process.

    ``failure(task, worker_traceback)`` builds the error raised when a
    re-dispatched task fails again; ``describe(task, point,
    redispatched)`` renders one progress line, passed to ``progress``
    in the parent.  Returns a task-to-point mapping; callers assemble
    tables in spec order, so completion order never leaks into results.
    """
    results: Dict[Task, Result] = {}

    def report(task: Task, point: Result, redispatched: bool) -> None:
        results[task] = point
        if progress is not None:
            progress(describe(task, point, redispatched))

    context = fork_context() if jobs > 1 else None
    if context is None:
        if jobs > 1 and progress is not None:
            progress("fork start method unavailable; running points serially")
        for task in tasks:
            report(task, measure(task), False)
        return results

    workers = min(jobs, len(tasks)) or 1
    failed_once: List[Tuple[Task, BaseException]] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(measure,),
    ) as pool:
        pending = {pool.submit(_worker_measure, task): task for task in tasks}
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                task = pending.pop(future)
                error = future.exception()
                if error is not None:
                    # First failure (including a broken pool, which fails
                    # every pending future): queue the single retry.
                    failed_once.append((task, error))
                    continue
                report(*future.result(), False)
    for task, error in failed_once:
        try:
            point = measure(task)
        except Exception as exc:
            raise failure(
                task,
                "".join(
                    traceback.format_exception(
                        type(error), error, error.__traceback__
                    )
                ),
            ) from exc
        report(task, point, True)
    return results
