"""A minimal deterministic discrete-event scheduler.

Events are ``(time, sequence)``-ordered callbacks: equal-time events fire in
scheduling order, so a seeded simulation replays identically.  The
scheduler is intentionally tiny — the broadcast engine is its only client,
but it is generic enough for the hello protocol and the mobility ablations.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..instrument import _STACK as _COUNTER_STACK

__all__ = ["EventScheduler"]

Callback = Callable[[], None]


class EventScheduler:
    """Time-ordered callback execution with FIFO tie-breaking."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callback]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._executed = 0
        self._max_queue_depth = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """How many events have fired so far."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """How many events are waiting."""
        return len(self._queue)

    @property
    def max_queue_depth(self) -> int:
        """High-water mark of the pending queue over this scheduler's life."""
        return self._max_queue_depth

    def schedule_at(self, time: float, callback: Callback) -> None:
        """Run ``callback`` at absolute ``time`` (must not be in the past)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time}; simulation time is {self._now}"
            )
        heapq.heappush(self._queue, (time, next(self._sequence), callback))
        if len(self._queue) > self._max_queue_depth:
            self._max_queue_depth = len(self._queue)

    def schedule_in(self, delay: float, callback: Callback) -> None:
        """Run ``callback`` after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self._now + delay, callback)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue; return the number of events executed.

        ``max_events`` caps execution (a safety valve for tests); ``None``
        runs to quiescence.
        """
        return self._drain(max_events=max_events, until=None)

    def run_until(
        self, until: float, max_events: Optional[int] = None
    ) -> int:
        """Execute every event with ``time <= until``; return the count.

        The broadcast service's horizon valve: a saturated multi-message
        run can be cut off at a fixed simulation time instead of being
        drained to quiescence.  Events beyond the horizon stay queued
        (callers may resume with another ``run``/``run_until``), and the
        clock never advances past the last *executed* event.
        """
        if until < self._now:
            raise ValueError(
                f"cannot run until {until}; simulation time is {self._now}"
            )
        return self._drain(max_events=max_events, until=until)

    def _drain(self, max_events: Optional[int], until: Optional[float]) -> int:
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            if until is not None and self._queue[0][0] > until:
                break
            time, _seq, callback = heapq.heappop(self._queue)
            self._now = time
            callback()
            executed += 1
            self._executed += 1
        if _COUNTER_STACK:
            counters = _COUNTER_STACK[-1]
            counters.scheduler_events += executed
            if self._max_queue_depth > counters.scheduler_max_queue_depth:
                counters.scheduler_max_queue_depth = self._max_queue_depth
        return executed
