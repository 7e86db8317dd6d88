"""Experiment specification types.

A *figure* is a set of *panels* (one per average degree and, where the
paper varies it, per view radius); a panel is a set of *series* (one per
algorithm); a series names a protocol factory and a priority scheme.
The specs are pure data — the runner executes them, the report module
renders them, and the benchmarks wrap them with reduced repetition knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from ..algorithms.base import BroadcastProtocol

__all__ = ["SeriesSpec", "PanelSpec", "FigureSpec", "RunSettings", "PAPER_NS"]

#: The node counts the paper sweeps (x axis of every evaluation figure).
PAPER_NS: Tuple[int, ...] = (20, 30, 40, 50, 60, 70, 80, 90, 100)


@dataclass(frozen=True)
class SeriesSpec:
    """One curve: an algorithm configuration under a priority scheme."""

    label: str
    protocol_factory: Callable[[], BroadcastProtocol]
    scheme_name: str = "id"


@dataclass(frozen=True)
class PanelSpec:
    """One panel: a node-count sweep at a fixed average degree."""

    title: str
    degree: float
    ns: Tuple[int, ...]
    series: Tuple[SeriesSpec, ...]


@dataclass(frozen=True)
class FigureSpec:
    """One paper figure: id, description, and its panels."""

    figure_id: str
    description: str
    panels: Tuple[PanelSpec, ...]


@dataclass(frozen=True)
class RunSettings:
    """Execution knobs: repetition counts and the stopping rule.

    The paper's rule is ``confidence=0.90, relative_half_width=0.01`` with
    effectively unbounded runs; benchmarks lower ``max_runs`` so the suite
    finishes quickly.  ``seed`` makes the whole sweep reproducible.

    ``jobs`` sizes the sweep pool
    (:func:`repro.experiments.parallel.run_points`): 1 (the default)
    runs points in-process; N > 1 fans the ``(series, n)`` points out
    over N fork workers.  Because every point derives its RNG from a
    per-point digest (:func:`repro.experiments.runner.point_seed`),
    results are byte-identical at any ``jobs`` value.

    The stopping rule's own checks (``min_runs >= 2``, ``max_runs >=
    min_runs``, ``0 < confidence < 1``) run here, once, so a bad setting
    is reported as itself rather than as a point failing in every
    worker.

    ``instrument`` turns on instrumentation counters
    (:class:`repro.instrument.InstrumentationCounters`): each measured
    point then carries its aggregated work counts in
    ``DataPoint.counters``, summed per point regardless of which worker
    measured it, so serial and parallel sweeps report identical totals.
    """

    confidence: float = 0.90
    relative_half_width: float = 0.01
    min_runs: int = 10
    max_runs: int = 200
    seed: int = 20030519  # ICDCS 2003 presentation date
    check_coverage: bool = True
    jobs: int = 1
    instrument: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.min_runs < 2:
            raise ValueError(f"min_runs must be >= 2, got {self.min_runs}")
        if self.max_runs < self.min_runs:
            raise ValueError("max_runs must be >= min_runs")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
