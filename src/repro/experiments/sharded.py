"""Compatibility shim for the benchmark ledger's mobility-trace workload.

The worker-group split now lives in
:func:`repro.experiments.runner.run_trace_sweep` (``jobs=N``).  The
ledger still imports and traces :func:`run_sharded_trace` by name; this
module goes once the ledger calls ``run_trace_sweep(jobs=2)`` directly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.priority import PriorityScheme
from ..graph.fliptrace import FlipTrace
from .runner import MobilityStep, run_trace_sweep

__all__ = ["run_sharded_trace"]


def run_sharded_trace(
    trace: FlipTrace,
    scheme: Optional[PriorityScheme] = None,
    k: int = 2,
    shards: Tuple[int, int] = (2, 2),
    jobs: int = 1,
) -> List[MobilityStep]:
    """``run_trace_sweep(trace, scheme, k, jobs)``; ``shards`` is ignored."""
    return run_trace_sweep(trace, scheme, k, jobs)
