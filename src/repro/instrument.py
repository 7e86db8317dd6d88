"""Instrumentation counters: the measured-work substrate for every layer.

The paper's cost-effectiveness arguments (Section 7) weigh forward-node
savings against the *work* a protocol does — hello rounds, coverage
evaluations, deliveries.  This module provides the single typed counter
object that every layer reports into:

* :mod:`repro.core.coverage` — coverage-condition evaluations, component
  decompositions, epoch-cache reuses;
* :mod:`repro.graph.topology` — query-cache hits/misses, BFS runs, and
  the bitmask-kernel ops (adjacency-mask table builds, mask BFS runs,
  component flood-fills);
* :mod:`repro.sim.mac` — deliveries, losses, collisions;
* :mod:`repro.sim.scheduler` — events fired, maximum queue depth;
* the broadcast engine and hello protocol — transmissions, bytes,
  decisions, hello beacons, NACK-recovery work.

Collection is scoped, not global: hot paths report into the innermost
active :func:`collecting` context and are a single ``if _STACK:`` check
when no context is active, so an uninstrumented run pays (close to)
nothing.  Contexts nest — an inner context captures a sub-measurement
and merges into its parent on exit — and counters merge across runs and
across the sweep pool's workers (they ship plain dicts back to the
parent; see :func:`repro.experiments.parallel.run_points`).

Counter semantics: every field is a monotone sum except the fields in
:data:`MAX_FIELDS` (high-water marks: the scheduler's maximum queue
depth, the service egress-queue peak, and the retired
``replica_nodes_max``), which merge by maximum.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, List, Mapping, Optional

__all__ = [
    "InstrumentationCounters",
    "MAX_FIELDS",
    "active",
    "collecting",
    "merge_counter_dicts",
]

#: Fields that merge by ``max`` instead of ``+`` (high-water marks).
MAX_FIELDS = frozenset(
    {"scheduler_max_queue_depth", "queue_depth_max", "replica_nodes_max"}
)


@dataclass
class InstrumentationCounters:
    """Typed, mergeable work counters for one measurement scope.

    All fields default to zero; :meth:`merge` adds another scope's counts
    into this one (maximum for :data:`MAX_FIELDS`).
    """

    # core/coverage.py
    coverage_evaluations: int = 0
    component_decompositions: int = 0
    # Always 0: the coverage predicates keep no per-view memo.  Kept only
    # because the benchmark ledger reads them by key.
    coverage_memo_hits: int = 0
    coverage_memo_misses: int = 0
    #: Bitset decisions answered from the status-free epoch state with
    #: no per-message flood fill (the monotone shortcut).
    coverage_epoch_reuses: int = 0
    # graph/topology.py
    topology_cache_hits: int = 0
    topology_cache_misses: int = 0
    bfs_runs: int = 0
    # graph/topology.py delta layer (apply_delta)
    delta_applies: int = 0
    dirty_nodes_invalidated: int = 0
    cache_entries_retained: int = 0
    # graph/topology.py + core/coverage.py bitmask kernels.  A mask table
    # is built only for a dict-backed graph (a deployment); k-hop views
    # and subgraphs are born with theirs, so they never count here.
    mask_table_builds: int = 0
    mask_khop_runs: int = 0
    mask_floodfills: int = 0
    # sim/mac.py
    mac_deliveries: int = 0
    mac_losses: int = 0
    mac_collisions: int = 0
    # sim/scheduler.py.  The service schedules one delivery event per
    # (transmission, arrival time), so these count delivery batches, not
    # per-receiver copies (``mac_deliveries`` counts those).
    scheduler_events: int = 0
    scheduler_max_queue_depth: int = 0
    # sim/service.py
    transmissions: int = 0
    bytes_transmitted: int = 0
    decisions: int = 0
    # sim/service.py (broadcast service)
    #: High-water mark of any node's bounded egress queue (merge: max).
    queue_depth_max: int = 0
    #: Backpressure and staleness drops: queue_full + ttl_expired events.
    messages_dropped: int = 0
    #: Always 0: decisions are no longer reused across messages (the
    #: coverage kernel's epoch state carries that reuse; see
    #: ``coverage_epoch_reuses``).  Kept only because the benchmark
    #: ledger reads it by key.
    forward_set_reuses: int = 0
    # Always 0: nothing writes these; ``run_trace_sweep``'s steps carry
    # the re-decide and flip counts.  Kept only because the benchmark
    # ledger reads them by key.
    shard_redecides: int = 0
    shard_handoff_redecides: int = 0
    shard_flips_applied: int = 0
    replica_nodes_max: int = 0
    shard_rehomes: int = 0
    # sim/hello.py
    hello_messages: int = 0
    # sim/reliable.py
    nacks: int = 0
    retransmissions: int = 0

    def merge(self, other: "InstrumentationCounters") -> None:
        """Fold ``other`` into this object (sum, max for high-water marks)."""
        for spec in fields(self):
            name = spec.name
            theirs = getattr(other, name)
            if name in MAX_FIELDS:
                if theirs > getattr(self, name):
                    setattr(self, name, theirs)
            else:
                setattr(self, name, getattr(self, name) + theirs)

    def __add__(self, other: "InstrumentationCounters") -> "InstrumentationCounters":
        """A fresh counters object holding the merge of both operands."""
        result = InstrumentationCounters()
        result.merge(self)
        result.merge(other)
        return result

    def as_dict(self) -> Dict[str, int]:
        """Plain ``{field: value}`` dict (pickle- and JSON-safe)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @staticmethod
    def from_dict(payload: Mapping[str, int]) -> "InstrumentationCounters":
        """Rebuild counters from :meth:`as_dict` output.

        Unknown keys are rejected so a schema drift between worker and
        parent (e.g. mixed library versions in a pool) fails loudly.
        """
        known = {spec.name for spec in fields(InstrumentationCounters)}
        unknown = set(payload) - known
        if unknown:
            raise KeyError(f"unknown counter fields: {sorted(unknown)}")
        return InstrumentationCounters(**dict(payload))

    def total_work(self) -> int:
        """Sum of all sum-semantics fields — a single coarse work scalar."""
        return sum(
            getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in MAX_FIELDS
        )


#: The stack of active collection scopes.  Hot paths check truthiness of
#: this list directly (``if _STACK: _STACK[-1].field += 1``) — it is
#: mutated in place and never rebound, so importing the object is safe.
_STACK: List[InstrumentationCounters] = []


def active() -> Optional[InstrumentationCounters]:
    """The innermost collecting scope's counters, or ``None``."""
    return _STACK[-1] if _STACK else None


@contextmanager
def collecting(
    counters: Optional[InstrumentationCounters] = None,
) -> Iterator[InstrumentationCounters]:
    """Collect instrumentation counts for the duration of the block.

    Yields the counters object (a fresh one unless ``counters`` is
    given).  Scopes nest: on exit the scope's counts are merged into the
    enclosing scope, so an outer aggregate still sees everything an
    inner sub-measurement captured.
    """
    scope = counters if counters is not None else InstrumentationCounters()
    _STACK.append(scope)
    try:
        yield scope
    finally:
        _STACK.pop()
        if _STACK:
            _STACK[-1].merge(scope)


def merge_counter_dicts(
    payloads: Iterable[Mapping[str, int]],
) -> Dict[str, int]:
    """Merge :meth:`InstrumentationCounters.as_dict` payloads.

    The dict-level twin of :meth:`InstrumentationCounters.merge`, used by
    the metrics layer where counters travel as plain dicts (e.g. attached
    to data points shipped back from pool workers).
    """
    total = InstrumentationCounters()
    for payload in payloads:
        total.merge(InstrumentationCounters.from_dict(payload))
    return total.as_dict()
