"""DET013 fixture: unpicklable / unordered payloads cross the fork boundary.

One set of offences is checked on pool dispatches and on Pipe/Queue
sends alike, in positional and keyword arguments.
"""

import multiprocessing  # noqa: F401  — arms the fork-boundary rule
from concurrent.futures import ProcessPoolExecutor


class StepReport:
    def __init__(self, step):
        self.step = step


def scatter(conn, queue, items):
    conn.send(StepReport(1))  # flagged: non-frozen project class
    queue.put({item for item in items})  # flagged: set comprehension
    queue.put_nowait(lambda: items)  # flagged: lambda
    conn.send(locals())  # flagged: locals()


def dispatch_dict(pool: ProcessPoolExecutor, work, **kwargs):
    return pool.submit(work, kwargs)  # flagged: kwargs dict as payload


def dispatch_splat(pool: ProcessPoolExecutor, work, **kwargs):
    return pool.submit(work, **kwargs)  # flagged: kwargs splat


def dispatch_locals(pool: ProcessPoolExecutor, work, task):
    return pool.submit(work, locals())  # flagged: locals() as payload


def dispatch_set(pool: ProcessPoolExecutor, work, items):
    return pool.submit(work, task=set(items))  # flagged: set() keyword


def forward_kwargs(queue, **options):
    queue.put(tuple(options.items()))  # flagged: **options in a send
