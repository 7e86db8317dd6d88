"""Experiment harness: specs, runner, and reports for every paper exhibit."""

from .config import PAPER_NS, FigureSpec, PanelSpec, RunSettings, SeriesSpec
from .figures import (
    FIGURE_BUILDERS,
    fig10_timing,
    fig11_selection,
    fig12_space,
    fig13_priority,
    fig14_static,
    fig15_first_receipt,
    fig16_backoff,
)
from .report import (
    Fig9Result,
    format_fig9,
    format_overhead_comparison,
    format_table1,
    run_and_format_figure,
    run_fig9_sample,
    run_overhead_comparison,
)
from .runner import (
    CoverageViolation,
    MobilityStep,
    ShardGroupFailure,
    measure_point,
    point_seed,
    run_figure,
    run_panel,
    run_trace_sweep,
)
from .parallel import PointFailure
from .traffic import (
    TrafficPointFailure,
    TrafficSweepConfig,
    run_traffic_sweep,
    traffic_point_seed,
)
from .overhead import (
    MeasuredOverhead,
    OverheadPoint,
    crossover_broadcasts,
    measure_overhead,
    measure_overhead_instrumented,
)
from .workload import BroadcastWorkload, WorkloadResult

__all__ = [
    "PAPER_NS",
    "FigureSpec",
    "PanelSpec",
    "RunSettings",
    "SeriesSpec",
    "FIGURE_BUILDERS",
    "fig10_timing",
    "fig11_selection",
    "fig12_space",
    "fig13_priority",
    "fig14_static",
    "fig15_first_receipt",
    "fig16_backoff",
    "Fig9Result",
    "format_fig9",
    "format_table1",
    "format_overhead_comparison",
    "run_and_format_figure",
    "run_fig9_sample",
    "run_overhead_comparison",
    "MeasuredOverhead",
    "OverheadPoint",
    "crossover_broadcasts",
    "measure_overhead",
    "measure_overhead_instrumented",
    "BroadcastWorkload",
    "WorkloadResult",
    "CoverageViolation",
    "MobilityStep",
    "measure_point",
    "point_seed",
    "run_figure",
    "run_panel",
    "run_trace_sweep",
    "ShardGroupFailure",
    "PointFailure",
    "TrafficPointFailure",
    "TrafficSweepConfig",
    "run_traffic_sweep",
    "traffic_point_seed",
]
