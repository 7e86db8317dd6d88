"""DET013 clean fixture: frozen, ordered payloads across the boundary."""

import multiprocessing  # noqa: F401  — arms the fork-boundary rule
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass


@dataclass(frozen=True)
class StepReport:
    step: int


def scatter(conn, queue, items):
    conn.send(StepReport(1))
    queue.put(tuple(items))
    queue.put_nowait((1, 2))
    conn.send(None)


def dispatch(pool: ProcessPoolExecutor, work, task):
    return pool.submit(work, task)


def dispatch_fields(pool: ProcessPoolExecutor, work, panel, series, n):
    return pool.submit(work, (panel, series, n))


def dispatch_sorted(pool: ProcessPoolExecutor, work, items):
    return pool.submit(work, task=tuple(sorted(items)))
