"""MAC-layer models.

The paper's evaluation uses "static networks with a collision-free MAC
layer" — :class:`IdealMac`.  Two further models support the ablations the
paper motivates elsewhere:

* :class:`JitterMac` — collision-free but with a random forwarding jitter,
  the mitigation the authors report relieves collisions;
* :class:`CollisionMac` — transmissions arriving at a receiver within a
  vulnerability window destroy each other, the broadcast-storm failure
  mode.  Combined with ``JitterMac``-style jitter it reproduces the claim
  that a small jitter restores deliverability.

A MAC decides, per transmission, when (and whether) each neighbor receives
the copy.  Loss is reported as ``None``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..instrument import _STACK as _COUNTER_STACK

__all__ = ["MacModel", "IdealMac", "JitterMac", "CollisionMac"]

Delivery = Tuple[int, Optional[float]]


def _tally(result: List[Delivery]) -> List[Delivery]:
    """Report one transmission's deliveries/losses into active counters."""
    if _COUNTER_STACK:
        counters = _COUNTER_STACK[-1]
        delivered = sum(1 for _, arrival in result if arrival is not None)
        counters.mac_deliveries += delivered
        counters.mac_losses += len(result) - delivered
    return result


class MacModel(ABC):
    """Maps one transmission to per-neighbor arrival times (or loss)."""

    @abstractmethod
    def deliveries(
        self,
        sender: int,
        time: float,
        neighbors: Iterable[int],
        rng: random.Random,
    ) -> List[Delivery]:
        """``(receiver, arrival_time)`` pairs; ``None`` arrival means lost."""

    def corrupted(self, receiver: int, arrival: float) -> bool:
        """Whether a previously scheduled copy got corrupted in flight.

        Checked by the engine at that receiver's turn in its delivery
        batch, so a later transmission — even one a receipt earlier in
        the same batch triggered — can retroactively destroy an earlier
        overlapping copy (both copies of a collision are garbage at the
        receiver).
        """
        return False

    def reset(self) -> None:
        """Clear any per-broadcast state (stateful models override)."""

    def retire(self, now: float) -> None:
        """Discard interference state that can no longer matter at ``now``.

        The engine resets the MAC once per run but shares it across
        *every* concurrent message, calling this on each injection:
        models prune whatever bookkeeping is outside
        their interference horizon (stateless models do nothing), so a
        long-lived service run stays O(in-flight) instead of O(history).
        """


class IdealMac(MacModel):
    """Collision-free unit-delay medium (the paper's setting)."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay <= 0:
            raise ValueError(f"delay must be positive, got {delay}")
        self.delay = delay

    def deliveries(
        self,
        sender: int,
        time: float,
        neighbors: Iterable[int],
        rng: random.Random,
    ) -> List[Delivery]:
        arrival = time + self.delay
        return _tally([(receiver, arrival) for receiver in neighbors])


class JitterMac(MacModel):
    """Collision-free medium with uniform random per-link jitter."""

    def __init__(self, delay: float = 1.0, jitter: float = 0.5) -> None:
        if delay <= 0:
            raise ValueError(f"delay must be positive, got {delay}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        self.delay = delay
        self.jitter = jitter

    def deliveries(
        self,
        sender: int,
        time: float,
        neighbors: Iterable[int],
        rng: random.Random,
    ) -> List[Delivery]:
        return _tally([
            (receiver, time + self.delay + rng.uniform(0.0, self.jitter))
            for receiver in neighbors
        ])


class CollisionMac(MacModel):
    """Two arrivals within the vulnerability window collide and are lost.

    Tracks, per receiver, the arrival time of every scheduled copy.  When
    two copies land within ``window`` of each other at the same receiver,
    **both** are destroyed: the new one is reported lost immediately and
    the earlier one is poisoned, which the engine discovers through
    :meth:`corrupted` at that receiver's turn in its delivery batch.  This is a
    simplified interference model — adequate for the
    redundancy-vs-reliability ablation, not a full 802.11 simulation.
    """

    def __init__(
        self, delay: float = 1.0, jitter: float = 0.0, window: float = 0.5
    ) -> None:
        if delay <= 0:
            raise ValueError(f"delay must be positive, got {delay}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.delay = delay
        self.jitter = jitter
        self.window = window
        #: Every arrival ever attempted (even lost copies occupy air time).
        self._arrivals: Dict[int, List[float]] = {}
        #: Arrivals that were scheduled as deliveries and may be poisoned.
        self._scheduled: Dict[int, Set[float]] = {}
        self._poisoned: Dict[int, Set[float]] = {}
        #: Count of copies destroyed by collisions (for reporting).
        self.collisions = 0

    def reset(self) -> None:
        self._arrivals.clear()
        self._scheduled.clear()
        self._poisoned.clear()
        self.collisions = 0

    def retire(self, now: float) -> None:
        """Drop arrivals that finished more than a window before ``now``.

        Any *future* arrival computed from time ``now`` lands at ``now +
        delay > now``, so history older than ``now - window`` can never
        overlap it again; ``corrupted`` checks fire at the arrival
        instant, so poison marks in that past have already been read.
        The ``collisions`` total is preserved — only bookkeeping ages out.
        """
        cutoff = now - self.window
        for receiver in list(self._arrivals):
            history = [t for t in self._arrivals[receiver] if t >= cutoff]
            if history:
                self._arrivals[receiver] = history
            else:
                del self._arrivals[receiver]
        for table in (self._scheduled, self._poisoned):
            for receiver in list(table):
                kept = {t for t in table[receiver] if t >= cutoff}
                if kept:
                    table[receiver] = kept
                else:
                    del table[receiver]

    def deliveries(
        self,
        sender: int,
        time: float,
        neighbors: Iterable[int],
        rng: random.Random,
    ) -> List[Delivery]:
        result: List[Delivery] = []
        collisions_before = self.collisions
        for receiver in neighbors:
            arrival = time + self.delay + (
                rng.uniform(0.0, self.jitter) if self.jitter else 0.0
            )
            history = self._arrivals.setdefault(receiver, [])
            overlapping = [
                earlier
                for earlier in history
                if abs(arrival - earlier) < self.window
            ]
            history.append(arrival)
            if overlapping:
                # The new copy is lost, and any previously *scheduled*
                # overlapping copy is retroactively destroyed too.
                poisoned = self._poisoned.setdefault(receiver, set())
                scheduled = self._scheduled.get(receiver, set())
                for earlier in overlapping:
                    if earlier in scheduled and earlier not in poisoned:
                        poisoned.add(earlier)
                        self.collisions += 1
                self.collisions += 1
                result.append((receiver, None))
            else:
                self._scheduled.setdefault(receiver, set()).add(arrival)
                result.append((receiver, arrival))
        if _COUNTER_STACK:
            _COUNTER_STACK[-1].mac_collisions += (
                self.collisions - collisions_before
            )
        return _tally(result)

    def corrupted(self, receiver: int, arrival: float) -> bool:
        return arrival in self._poisoned.get(receiver, ())
