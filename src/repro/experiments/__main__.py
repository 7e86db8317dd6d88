"""Command-line entry point: regenerate any paper table or figure.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig9 --svg-dir out/
    python -m repro.experiments fig10 --quick
    python -m repro.experiments all --quick
    python -m repro.experiments fig15 --ns 20 60 100 --max-runs 30
    python -m repro.experiments fig11 --jobs 4
    python -m repro.experiments fig11 --quick --instrument
    python -m repro.experiments overhead
    python -m repro.experiments traffic --rates 0.2 1.0 5.0 --jobs 4
    python -m repro.experiments sharded-mobility --quick --jobs 4

``--quick`` shrinks the sweep and the repetition bounds so a figure runs
in seconds; omit it for paper-precision runs (90% CI within ±1%).
``--jobs N`` fans the measurement points over N worker processes with
byte-identical results (``--jobs 0`` uses every core).
``--instrument`` turns the work counters on: each point carries them in
the JSON export and text runs print the merged totals per panel.  The
``overhead`` target renders the measured-vs-analytical control-overhead
table.  The ``traffic`` target runs the broadcast service's
offered-vs-delivered-load saturation sweep (one series per protocol,
latency p50/p95/p99 per point); it honours ``--jobs``, ``--seed``,
``--instrument`` and ``--format``.  The ``sharded-mobility`` target
records a random-waypoint flip trace, replays it through the
incremental sweep split over ``--jobs N`` worker groups
(:func:`~repro.experiments.runner.run_trace_sweep`) and prints per-step
forward-set sizes, re-decides and link flips; everything below its
header line is identical at any ``--jobs``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .config import RunSettings
from .figures import FIGURE_BUILDERS
from .report import (
    format_fig9,
    format_overhead_comparison,
    format_table1,
    run_fig9_sample,
    run_overhead_comparison,
)

__all__ = ["main"]

_QUICK_NS = (20, 40, 60, 80, 100)


#: The least value each count option accepts; ``parser.error`` refuses
#: anything below it.
_MINIMUMS = {
    "jobs": 0,
    "messages": 1,
    "traffic_nodes": 2,
    "steps": 0,
    "mobility_nodes": 1,
}


def _or_default(value: Optional[int], default: int) -> int:
    """An option's value, or ``default`` when the option was not given."""
    return default if value is None else value


def _build_settings(args: argparse.Namespace) -> RunSettings:
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    if args.quick:
        return RunSettings(
            min_runs=args.min_runs or 8,
            max_runs=args.max_runs or 20,
            relative_half_width=0.05,
            seed=args.seed,
            jobs=jobs,
            instrument=args.instrument,
        )
    return RunSettings(
        min_runs=args.min_runs or 10,
        max_runs=args.max_runs or 10_000,
        relative_half_width=0.01,
        seed=args.seed,
        jobs=jobs,
        instrument=args.instrument,
    )


def _emit_fig9(args: argparse.Namespace) -> None:
    result = run_fig9_sample(seed=args.seed)
    print(format_fig9(result))
    if args.svg_dir:
        os.makedirs(args.svg_dir, exist_ok=True)
        for (hops, label), _nodes in result.forward_sets.items():
            path = os.path.join(args.svg_dir, f"fig9_{label}_{hops}hop.svg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(result.svg(hops, label))
            print(f"wrote {path}")


def _run_traffic(args: argparse.Namespace) -> None:
    import random as _random

    from ..algorithms import create
    from ..graph.generators import random_connected_network
    from ..metrics.results import format_table
    from .export import table_to_csv, tables_to_json
    from .traffic import TrafficSweepConfig, run_traffic_sweep

    n = _or_default(args.traffic_nodes, 60 if args.quick else 200)
    count = _or_default(args.messages, 20 if args.quick else 50)
    rates = tuple(args.rates) if args.rates else (0.2, 1.0, 5.0)
    network = random_connected_network(
        n, 6.0, _random.Random(args.seed)
    )
    protocols = [
        (name, (lambda protocol_name=name: create(protocol_name)))
        for name in args.protocols
    ]
    config = TrafficSweepConfig(
        rates=rates,
        count=count,
        seed=args.seed,
        ttl=args.ttl,
        jobs=args.jobs if args.jobs else (os.cpu_count() or 1),
        collect_counters=args.instrument,
    )
    progress = (
        (lambda msg: print(f"  .. {msg}", file=sys.stderr))
        if args.verbose
        else None
    )
    table = run_traffic_sweep(network.topology, protocols, config, progress)
    if args.format == "json":
        print(tables_to_json([table]))
    elif args.format == "csv":
        print(f"# {table.title}")
        print(table_to_csv(table))
    else:
        print(format_table(table, precision=4))
        print()
        print("latency SLOs (p50 / p95 / p99) per offered load:")
        for series in table.series:
            for point in series.points:
                extras = point.extras or {}
                if "latency_p50" in extras:
                    slo = (
                        f"{extras['latency_p50']:.2f} / "
                        f"{extras['latency_p95']:.2f} / "
                        f"{extras['latency_p99']:.2f}"
                    )
                else:
                    slo = "no fully delivered messages"
                print(
                    f"  {series.label} @ rate {point.x:g}: {slo}  "
                    f"(goodput {extras.get('goodput', 0.0):.4f}, "
                    f"drops {extras.get('dropped_events', 0.0):g})"
                )
        totals = table.total_counters()
        if totals is not None:
            nonzero = {k: v for k, v in sorted(totals.items()) if v}
            print()
            print("measured work (instrumentation counters):")
            for key, value in nonzero.items():
                print(f"  {key}: {value}")


def _run_sharded_mobility(args: argparse.Namespace) -> None:
    import random as _random

    from ..core.priority import DegreePriority
    from ..graph.fliptrace import record_flip_trace
    from ..graph.geometry import Area, random_points
    from ..graph.mobility import RandomWaypointModel
    from ..graph.unit_disk import range_for_average_degree
    from .runner import run_trace_sweep

    n = _or_default(args.mobility_nodes, 300 if args.quick else 2000)
    steps = _or_default(args.steps, 10 if args.quick else 40)
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    rng = _random.Random(args.seed)
    positions = random_points(n, Area(), rng)
    radius, _ = range_for_average_degree(positions, 6.0)
    model = RandomWaypointModel(
        positions, radius=radius, rng=rng, min_speed=0.02, max_speed=0.05
    )
    results = run_trace_sweep(
        record_flip_trace(model, steps, 1.0),
        scheme=DegreePriority(), k=2, jobs=jobs,
    )
    print(f"sharded mobility sweep: n={n} steps={steps} jobs={jobs}")
    print(f"{'step':>4}  {'forward':>7}  {'redecided':>9}  {'flips':>5}")
    for step in results:
        print(
            f"{step.step:>4}  {len(step.forward):>7}  {step.redecided:>9}  "
            f"{step.added_edges + step.removed_edges:>5}"
        )
    print(
        "totals: "
        f"redecided={sum(s.redecided for s in results)} "
        f"flips={sum(s.added_edges + s.removed_edges for s in results)}"
    )


def _run_figure(name: str, args: argparse.Namespace) -> None:
    builder = FIGURE_BUILDERS[name]
    ns = tuple(args.ns) if args.ns else (_QUICK_NS if args.quick else None)
    figure = builder(ns=ns)
    settings = _build_settings(args)
    progress = (lambda msg: print(f"  .. {msg}", file=sys.stderr)) if args.verbose else None
    from .export import table_to_csv, tables_to_json
    from .runner import run_figure as _run
    from ..metrics.results import format_table
    from ..viz.ascii_plot import ascii_chart

    tables = _run(figure, settings, progress)
    if args.format == "json":
        print(tables_to_json(tables))
    elif args.format == "csv":
        for table in tables:
            print(f"# {table.title}")
            print(table_to_csv(table))
    else:
        print(f"{figure.figure_id}: {figure.description}\n")
        for table in tables:
            print(format_table(table))
            totals = table.total_counters()
            if totals is not None:
                nonzero = {k: v for k, v in sorted(totals.items()) if v}
                print()
                print("measured work (instrumentation counters):")
                for key, value in nonzero.items():
                    print(f"  {key}: {value}")
            if not args.no_charts:
                print()
                print(ascii_chart(table))
            print()
    if args.chart_dir:
        from ..viz.chart_svg import chart_svg

        os.makedirs(args.chart_dir, exist_ok=True)
        for index, table in enumerate(tables):
            slug = table.title.replace(" ", "_").replace(",", "")
            path = os.path.join(args.chart_dir, f"{name}_{slug}.svg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(chart_svg(table))
            print(f"wrote {path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    targets = [
        "table1", "fig9", *FIGURE_BUILDERS,
        "overhead", "traffic", "sharded-mobility", "all",
    ]
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("target", choices=targets, help="what to regenerate")
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep and repetitions (seconds instead of minutes)",
    )
    parser.add_argument(
        "--ns", type=int, nargs="+", default=None,
        help="node counts to sweep (default: the paper's 20..100)",
    )
    parser.add_argument("--min-runs", type=int, default=None)
    parser.add_argument("--max-runs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=20030519)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for figure, traffic and sharded-mobility "
        "sweeps (1 = serial, 0 = all cores); results are byte-identical "
        "at any value",
    )
    parser.add_argument(
        "--svg-dir", default="", help="fig9: directory for SVG renderings"
    )
    parser.add_argument(
        "--chart-dir", default="",
        help="figure runs: also write SVG line charts here",
    )
    parser.add_argument("--no-charts", action="store_true")
    parser.add_argument(
        "--instrument", action="store_true",
        help="collect work counters per point (shown in text runs, "
        "included in JSON export)",
    )
    parser.add_argument(
        "--format", choices=["text", "csv", "json"], default="text",
        help="output format for figure runs (default: text tables)",
    )
    parser.add_argument(
        "--rates", type=float, nargs="+", default=None,
        help="traffic: offered Poisson loads to sweep (msgs/time unit)",
    )
    parser.add_argument(
        "--messages", type=int, default=None,
        help="traffic: messages injected per sweep point",
    )
    parser.add_argument(
        "--traffic-nodes", type=int, default=None,
        help="traffic: deployment size (default 200, or 60 with --quick)",
    )
    parser.add_argument(
        "--ttl", type=float, default=None,
        help="traffic: per-message TTL in simulation time units",
    )
    parser.add_argument(
        "--protocols", nargs="+", default=["flooding", "dp", "pdp"],
        help="traffic: protocol registry names, one series each",
    )
    parser.add_argument(
        "--steps", type=int, default=None,
        help="sharded-mobility: mobility steps to replay "
        "(default 40, or 10 with --quick)",
    )
    parser.add_argument(
        "--mobility-nodes", type=int, default=None,
        help="sharded-mobility: deployment size (default 2000, or 300 "
        "with --quick)",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    for dest, least in _MINIMUMS.items():
        value = getattr(args, dest)
        if value is not None and value < least:
            flag = "--" + dest.replace("_", "-")
            parser.error(f"argument {flag}: must be >= {least}, got {value}")

    if args.target == "table1":
        print(format_table1())
    elif args.target == "fig9":
        _emit_fig9(args)
    elif args.target == "overhead":
        trials = 5 if args.quick else 15
        measured = run_overhead_comparison(trials=trials)
        print(format_overhead_comparison(measured))
    elif args.target == "traffic":
        _run_traffic(args)
    elif args.target == "sharded-mobility":
        _run_sharded_mobility(args)
    elif args.target == "all":
        print(format_table1())
        print()
        _emit_fig9(args)
        print()
        for name in FIGURE_BUILDERS:
            _run_figure(name, args)
    else:
        _run_figure(args.target, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
