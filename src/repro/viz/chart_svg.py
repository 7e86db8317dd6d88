"""SVG line charts for experiment results.

Renders a :class:`~repro.metrics.results.ResultTable` as a standalone
SVG line chart — axes, ticks, per-series polylines with distinct dash
patterns and markers, and a legend — so regenerated figures can sit next
to the paper's originals without any plotting dependency.
"""

from __future__ import annotations

from typing import List

from ..metrics.results import ResultTable

__all__ = ["chart_svg"]

_COLORS = [
    "#2040a0",  # blue
    "#c03020",  # red
    "#208040",  # green
    "#806010",  # ochre
    "#7030a0",  # purple
    "#108080",  # teal
]

_DASHES = ["", "6,3", "2,3", "8,3,2,3", "4,2", "1,3"]


def _nice_ticks(low: float, high: float, count: int = 5) -> List[float]:
    """Roughly ``count`` human-friendly tick positions covering a range."""
    if high <= low:
        return [low]
    raw_step = (high - low) / max(1, count - 1)
    magnitude = 10 ** int(f"{raw_step:e}".split("e")[1])
    for factor in (1, 2, 5, 10):
        step = factor * magnitude
        if step >= raw_step:
            break
    start = int(low / step) * step
    ticks = []
    value = start
    while value <= high + step / 2:
        if value >= low - step / 2:
            ticks.append(round(value, 10))
        value += step
    return ticks or [low]


def chart_svg(
    table: ResultTable,
    width: int = 480,
    height: int = 320,
) -> str:
    """A complete SVG document plotting every series of ``table``."""
    if width < 160 or height < 120:
        raise ValueError("chart needs at least 160x120 pixels")
    margin_left, margin_right = 52.0, 16.0
    margin_top, margin_bottom = 34.0, 60.0
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    points = [
        (p.x, p.mean) for s in table.series for p in s.points
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{margin_left}" y="16" font-size="13">{table.title}</text>',
    ]
    if not points:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{height / 2:.0f}" '
            f'text-anchor="middle">(no data)</text></svg>'
        )
        return "".join(parts)

    x_low, x_high = min(p[0] for p in points), max(p[0] for p in points)
    y_low, y_high = 0.0, max(p[1] for p in points) * 1.05 or 1.0
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    def sx(x: float) -> float:
        return margin_left + (x - x_low) / x_span * plot_w

    def sy(y: float) -> float:
        return margin_top + plot_h - (y - y_low) / y_span * plot_h

    # Axes and ticks.
    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#404040" stroke-width="1"/>'
    )
    for tick in _nice_ticks(x_low, x_high):
        parts.append(
            f'<line x1="{sx(tick):.1f}" y1="{margin_top + plot_h:.1f}" '
            f'x2="{sx(tick):.1f}" y2="{margin_top + plot_h + 4:.1f}" '
            f'stroke="#404040"/>'
            f'<text x="{sx(tick):.1f}" y="{margin_top + plot_h + 16:.1f}" '
            f'text-anchor="middle">{tick:g}</text>'
        )
    for tick in _nice_ticks(y_low, y_high):
        parts.append(
            f'<line x1="{margin_left - 4:.1f}" y1="{sy(tick):.1f}" '
            f'x2="{margin_left:.1f}" y2="{sy(tick):.1f}" stroke="#404040"/>'
            f'<text x="{margin_left - 7:.1f}" y="{sy(tick) + 4:.1f}" '
            f'text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{margin_left + plot_w / 2:.0f}" '
        f'y="{height - 28:.0f}" text-anchor="middle">{table.x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{margin_top + plot_h / 2:.0f}" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{margin_top + plot_h / 2:.0f})">{table.y_label}</text>'
    )

    # Series.
    for index, series in enumerate(table.series):
        color = _COLORS[index % len(_COLORS)]
        dash = _DASHES[index % len(_DASHES)]
        ordered = sorted(series.points, key=lambda p: p.x)
        coordinates = " ".join(
            f"{sx(p.x):.1f},{sy(p.mean):.1f}" for p in ordered
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{coordinates}" fill="none" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        for p in ordered:
            parts.append(
                f'<circle cx="{sx(p.x):.1f}" cy="{sy(p.mean):.1f}" '
                f'r="2.6" fill="{color}"/>'
            )

    # Legend along the bottom.
    legend_y = height - 10
    cursor = margin_left
    for index, series in enumerate(table.series):
        color = _COLORS[index % len(_COLORS)]
        parts.append(
            f'<line x1="{cursor:.0f}" y1="{legend_y - 4}" '
            f'x2="{cursor + 18:.0f}" y2="{legend_y - 4}" stroke="{color}" '
            f'stroke-width="2"/>'
            f'<text x="{cursor + 22:.0f}" y="{legend_y}">{series.label}</text>'
        )
        cursor += 30 + 7 * len(series.label)
    parts.append("</svg>")
    return "".join(parts)
