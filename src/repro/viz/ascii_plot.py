"""Terminal line charts for experiment results.

Renders a :class:`~repro.metrics.results.ResultTable` as a fixed-size
character grid — enough to eyeball the orderings and crossovers the paper's
figures show, with no plotting dependency.
"""

from __future__ import annotations

from typing import List

from ..metrics.results import ResultTable

__all__ = ["ascii_chart"]

_MARKERS = "ox+*#@%&"


def ascii_chart(
    table: ResultTable, width: int = 60, height: int = 18
) -> str:
    """An ASCII chart of every series in ``table``.

    Each series gets a marker character; overlapping points show the later
    series' marker.  Axes are annotated with min/max values.
    """
    if width < 10 or height < 4:
        raise ValueError("chart needs at least 10x4 characters")
    points = [
        (point.x, point.mean)
        for series in table.series
        for point in series.points
    ]
    if not points:
        return f"{table.title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for index, series in enumerate(table.series):
        marker = _MARKERS[index % len(_MARKERS)]
        for point in series.points:
            col = round((point.x - x_low) / x_span * (width - 1))
            row = round((point.mean - y_low) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker

    lines = [table.title]
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={series.label}"
        for i, series in enumerate(table.series)
    )
    lines.append(legend)
    lines.append(f"{y_high:10.2f} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row) + "|")
    lines.append(f"{y_low:10.2f} +" + "-" * width + "+")
    lines.append(
        " " * 12 + f"{x_low:<10.0f}" + " " * (width - 20) + f"{x_high:>10.0f}"
    )
    lines.append(" " * 12 + table.x_label)
    return "\n".join(lines)
