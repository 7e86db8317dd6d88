"""Experiment result records and paper-style table formatting.

Each figure in the paper plots *number of forward nodes* against *number
of nodes*, one series per algorithm, one panel per average degree (and,
for Figures 14-16, per view radius).  :class:`Series` is one curve,
:class:`ResultTable` one panel, and :func:`format_table` renders the rows
the benchmark harness prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..instrument import merge_counter_dicts

__all__ = ["DataPoint", "Series", "ResultTable", "format_table"]


@dataclass(frozen=True)
class DataPoint:
    """One measured point: the x value and the aggregated metric."""

    x: float
    mean: float
    half_width: float = 0.0
    samples: int = 0
    #: Instrumentation counters aggregated over the point's samples, as a
    #: plain name -> count mapping (``None`` when instrumentation was off).
    #: Kept as a dict so points pickle cheaply across worker processes.
    counters: Optional[Dict[str, int]] = None
    #: Secondary per-point metrics beyond the headline mean — the traffic
    #: sweeps carry latency percentiles (``latency_p50``/``p95``/``p99``)
    #: and ``goodput`` here.  ``None`` for classic figure points, which
    #: keeps their JSON export byte-stable.
    extras: Optional[Dict[str, float]] = None


@dataclass
class Series:
    """One labelled curve (an algorithm under one configuration)."""

    label: str
    points: List[DataPoint] = field(default_factory=list)

    def add(self, point: DataPoint) -> None:
        """Append a measured point."""
        self.points.append(point)

    def xs(self) -> List[float]:
        """The series' x values, in insertion order."""
        return [p.x for p in self.points]

    def means(self) -> List[float]:
        """The series' means, aligned with :meth:`xs`."""
        return [p.mean for p in self.points]

    def value_at(self, x: float) -> Optional[float]:
        """The mean at ``x``, or ``None`` when unmeasured.

        Matching uses :func:`math.isclose` rather than ``==`` so x values
        that went through float arithmetic (density sweeps computed as
        ``n * spacing``, deserialised JSON, …) still find their point.
        """
        for point in self.points:
            if math.isclose(point.x, x, rel_tol=1e-9, abs_tol=1e-12):
                return point.mean
        return None

    def total_counters(self) -> Optional[Dict[str, int]]:
        """Instrumentation counters merged across the series' points.

        ``None`` when no point carries counters; points without counters
        are skipped otherwise.
        """
        payloads = [p.counters for p in self.points if p.counters is not None]
        if not payloads:
            return None
        return merge_counter_dicts(payloads)


@dataclass
class ResultTable:
    """One panel: a title, an x-axis, and several series."""

    title: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)

    def add_series(self, series: Series) -> None:
        """Append a series to the panel."""
        self.series.append(series)

    def get_series(self, label: str) -> Series:
        """The series with the given label (KeyError if absent)."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r}")

    def xs(self) -> List[float]:
        """Sorted union of every series' x values."""
        values: List[float] = []
        for series in self.series:
            for x in series.xs():
                if x not in values:
                    values.append(x)
        return sorted(values)

    def total_counters(self) -> Optional[Dict[str, int]]:
        """Instrumentation counters merged across every series.

        ``None`` when no series carries counters.
        """
        payloads = [
            totals
            for totals in (series.total_counters() for series in self.series)
            if totals is not None
        ]
        if not payloads:
            return None
        return merge_counter_dicts(payloads)


def format_table(table: ResultTable, precision: int = 2) -> str:
    """Render a :class:`ResultTable` as aligned text rows.

    One row per x value, one column per series — the same rows the paper's
    figures plot.
    """
    labels = [series.label for series in table.series]
    header = [table.x_label, *labels]
    rows: List[List[str]] = [header]
    for x in table.xs():
        row = [f"{x:g}"]
        for series in table.series:
            value = series.value_at(x)
            row.append("-" if value is None else f"{value:.{precision}f}")
        rows.append(row)
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(header))
    ]
    lines = [table.title, ""]
    for index, row in enumerate(rows):
        line = "  ".join(
            cell.rjust(width) for cell, width in zip(row, widths)
        )
        lines.append(line)
        if index == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)
