"""Report generation: Table 1, the Figure 9 sample network, and figure runs.

These are the entry points the CLI and benchmarks call: each returns the
formatted text the paper's corresponding exhibit would contain.  The
overhead comparison (:func:`run_overhead_comparison` /
:func:`format_overhead_comparison`) renders measured instrumentation
counts next to the analytical cost model of
:mod:`repro.experiments.overhead`, validating the model against the
simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import Timing
from ..algorithms.generic import GenericSelfPruning, GenericStatic
from ..algorithms.registry import table1_rows
from ..graph.generators import random_connected_network
from ..graph.unit_disk import UnitDiskGraph
from ..metrics.results import ResultTable, format_table
from ..sim.engine import SimulationEnvironment, run_broadcast
from ..core.priority import IdPriority
from ..viz.ascii_plot import ascii_chart
from ..viz.network_svg import network_svg
from .config import FigureSpec, RunSettings
from .overhead import MeasuredOverhead, measure_overhead_instrumented
from .runner import run_figure

__all__ = [
    "format_table1",
    "Fig9Result",
    "run_fig9_sample",
    "format_fig9",
    "run_and_format_figure",
    "run_overhead_comparison",
    "format_overhead_comparison",
]


def format_table1() -> str:
    """The paper's Table 1 classification as aligned text."""
    rows = table1_rows()
    header = ("Category", "Self-pruning", "Neighbor-designating")
    all_rows = [header, *rows]
    widths = [
        max(len(str(row[col])) for row in all_rows) for col in range(3)
    ]
    lines = ["Table 1: existing distributed broadcast algorithms", ""]
    for index, row in enumerate(all_rows):
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
        if index == 0:
            lines.append("-" * (sum(widths) + 4))
    return "\n".join(lines)


@dataclass
class Fig9Result:
    """The Figure 9 sample run: one network, six forward node sets."""

    network: UnitDiskGraph
    source: int
    #: ``(hops, timing label) -> forward node set``.
    forward_sets: Dict[Tuple[int, str], frozenset]

    def counts(self) -> Dict[Tuple[int, str], int]:
        """Forward-node counts per ``(hops, timing)`` combination."""
        return {key: len(value) for key, value in self.forward_sets.items()}

    def svg(self, hops: int, label: str) -> str:
        """A Figure-9-style SVG for one of the six forward sets."""
        forward = self.forward_sets[(hops, label)]
        return network_svg(
            self.network,
            forward_nodes=forward,
            source=self.source,
            title=f"Figure 9 sample: {label}, {hops}-hop "
            f"({len(forward)} forward nodes)",
        )


def run_fig9_sample(
    n: int = 100,
    degree: float = 6.0,
    seed: int = 9,
) -> Fig9Result:
    """Reproduce Figure 9: one 100-node sample, three timings, two radii.

    The paper reports forward-node counts for the static, first-receipt,
    and first-receipt-with-backoff generic algorithms at 2- and 3-hop
    information (49/45/41 and 46/42/36 on its sample network).
    """
    rng = random.Random(seed)
    network = random_connected_network(n, degree, rng)
    source = rng.choice(network.topology.nodes())
    env = SimulationEnvironment(network.topology, IdPriority())
    timings = [
        ("static", None),
        ("FR", Timing.FIRST_RECEIPT),
        ("FRB", Timing.FIRST_RECEIPT_BACKOFF),
    ]
    forward_sets: Dict[Tuple[int, str], frozenset] = {}
    for hops in (2, 3):
        for label, timing in timings:
            if timing is None:
                protocol = GenericStatic(hops=hops)
            else:
                protocol = GenericSelfPruning(timing, hops=hops)
            protocol.prepare(env)
            outcome = run_broadcast(
                network.topology, protocol, source,
                rng=random.Random(seed + hops), env=env,
            )
            forward_sets[(hops, label)] = frozenset(outcome.forward_nodes)
    return Fig9Result(network=network, source=source, forward_sets=forward_sets)


def format_fig9(result: Fig9Result) -> str:
    """Figure 9 counts as text (paper: 49/45/41 and 46/42/36)."""
    lines = [
        "Figure 9: broadcasting on a sample ad hoc network of "
        f"{result.network.node_count} nodes (source {result.source})",
        "",
    ]
    for hops in (2, 3):
        counts = [
            f"{label}={len(result.forward_sets[(hops, label)])}"
            for label in ("static", "FR", "FRB")
        ]
        lines.append(f"{hops}-hop information: " + ", ".join(counts))
    return "\n".join(lines)


def run_overhead_comparison(
    hops_values: Sequence[int] = (2, 3),
    scheme_names: Sequence[str] = ("id",),
    n: int = 60,
    degree: float = 6.0,
    trials: int = 15,
    seed: int = 97,
) -> List[MeasuredOverhead]:
    """Measure every (k, scheme) combination with instrumentation on."""
    return [
        measure_overhead_instrumented(
            hops, scheme_name, n=n, degree=degree, trials=trials, seed=seed
        )
        for scheme_name in scheme_names
        for hops in hops_values
    ]


def format_overhead_comparison(measured: Sequence[MeasuredOverhead]) -> str:
    """Measured instrumentation counts next to the analytical cost model.

    One row per configuration: the model's hello term
    ``trials * n * (k + extra_rounds)`` against the hello beacons the
    simulator actually emitted, and the model's mean-forward term against
    the mean transmissions the counters recorded.  Agreement validates
    :mod:`repro.experiments.overhead`'s analytical model end to end.
    """
    header = (
        "k",
        "scheme",
        "hello (model)",
        "hello (measured)",
        "fwd/bcast (model)",
        "tx/bcast (measured)",
        "match",
    )
    rows: List[Tuple[str, ...]] = [header]
    for item in measured:
        point = item.point
        tx_match = (
            item.hello_matches
            and abs(item.measured_transmissions - point.mean_forwards) < 1e-9
        )
        rows.append(
            (
                str(point.hops),
                point.scheme_name,
                str(item.analytical_hello_messages),
                str(item.measured_hello_messages),
                f"{point.mean_forwards:.2f}",
                f"{item.measured_transmissions:.2f}",
                "yes" if tx_match else "NO",
            )
        )
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(header))
    ]
    lines = [
        "Control overhead: analytical model vs instrumentation counters",
        "",
    ]
    for index, row in enumerate(rows):
        line = "  ".join(
            cell.rjust(width) for cell, width in zip(row, widths)
        )
        lines.append(line)
        if index == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)


def run_and_format_figure(
    figure: FigureSpec,
    settings: Optional[RunSettings] = None,
    charts: bool = True,
    progress=None,
) -> str:
    """Run a figure spec and render all panels as tables (plus charts)."""
    tables = run_figure(figure, settings, progress)
    sections: List[str] = [f"{figure.figure_id}: {figure.description}", ""]
    for table in tables:
        sections.append(format_table(table))
        if charts:
            sections.append("")
            sections.append(ascii_chart(table))
        sections.append("")
    return "\n".join(sections)
