"""Decision explanations: *why* is this node forward or non-forward?

A debugging and teaching aid over the coverage machinery: for a node and
a view, report the uncovered neighbor pairs (if any), the replacement
path MAX_MIN constructs for each covered pair, and which condition
variants (generic / strong / Span) agree.  Used by the diagnosis example
and handy when a new protocol misbehaves.

The second half of the module reads *recorded executions*: given a
:class:`~repro.sim.engine.BroadcastOutcome` with typed events on it,
:func:`decision_timeline` lists every status decision in simulation
order and :func:`format_decision_timeline` renders them for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.coverage import (
    coverage_condition,
    span_condition,
    strong_coverage_condition,
    uncovered_pairs,
)
from ..core.maxmin import max_min_path
from ..core.views import View
from ..sim.engine import BroadcastOutcome
from ..sim.events import Decide

__all__ = [
    "PairExplanation",
    "DecisionExplanation",
    "explain_decision",
    "decision_timeline",
    "format_decision_timeline",
]


@dataclass(frozen=True)
class PairExplanation:
    """One neighbor pair and its replacement path (or lack of one)."""

    pair: Tuple[int, int]
    #: The maximal replacement path including endpoints; ``None`` when
    #: the pair is uncovered.
    path: Optional[Tuple[int, ...]]

    @property
    def covered(self) -> bool:
        return self.path is not None

    def describe(self) -> str:
        """One line: the pair and how (or whether) it is replaced."""
        u, w = self.pair
        if self.path is None:
            return f"({u}, {w}): UNCOVERED — no replacement path"
        if len(self.path) == 2:
            return f"({u}, {w}): direct edge"
        inner = " -> ".join(str(x) for x in self.path)
        return f"({u}, {w}): replaced via {inner}"


@dataclass
class DecisionExplanation:
    """The full story of one node's status under one view."""

    node: int
    non_forward: bool
    strong_non_forward: bool
    span_non_forward: bool
    pairs: List[PairExplanation] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "non-forward" if self.non_forward else "forward"

    def uncovered(self) -> List[Tuple[int, int]]:
        """The neighbor pairs blocking non-forward status."""
        return [p.pair for p in self.pairs if not p.covered]

    def describe(self) -> str:
        """The full multi-line explanation, ready to print."""
        lines = [
            f"node {self.node}: {self.status}",
            f"  generic coverage condition : "
            f"{'satisfied' if self.non_forward else 'violated'}",
            f"  strong coverage condition  : "
            f"{'satisfied' if self.strong_non_forward else 'violated'}",
            f"  span (<=2 intermediates)   : "
            f"{'satisfied' if self.span_non_forward else 'violated'}",
        ]
        for pair in self.pairs:
            lines.append(f"    {pair.describe()}")
        return "\n".join(lines)


def explain_decision(view: View, node: int) -> DecisionExplanation:
    """Explain a node's status under ``view``, pair by pair."""
    failing = set(uncovered_pairs(view, node))
    neighbors = sorted(view.graph.neighbors(node))
    pairs: List[PairExplanation] = []
    for i, u in enumerate(neighbors):
        for w in neighbors[i + 1:]:
            if (u, w) in failing:
                pairs.append(PairExplanation(pair=(u, w), path=None))
            else:
                path = max_min_path(view, u, w, node)
                pairs.append(
                    PairExplanation(
                        pair=(u, w),
                        path=tuple(path) if path is not None else None,
                    )
                )
    return DecisionExplanation(
        node=node,
        non_forward=coverage_condition(view, node),
        strong_non_forward=strong_coverage_condition(view, node),
        span_non_forward=span_condition(view, node),
        pairs=pairs,
    )


def decision_timeline(outcome: BroadcastOutcome) -> List[Decide]:
    """All status decisions of a recorded broadcast, in simulation order.

    Consumes the typed :class:`~repro.sim.events.Decide` events on
    ``outcome.events``; requires the session to have been run with
    ``collect_trace=True`` (or an explicit recording bus), and raises
    ``ValueError`` otherwise.
    """
    if outcome.events is None:
        raise ValueError(
            "decision timeline needs recorded events; run the session "
            "with collect_trace=True"
        )
    return [event for event in outcome.events if isinstance(event, Decide)]


def format_decision_timeline(outcome: BroadcastOutcome) -> str:
    """Render :func:`decision_timeline` as one line per decision."""
    lines = []
    for event in decision_timeline(outcome):
        status = "forward" if event.forward else "non-forward"
        qualifier = f" [{event.reason}]" if event.reason != "timer" else ""
        lines.append(
            f"[{event.time:8.3f}] node {event.node}: {status}{qualifier}"
        )
    return "\n".join(lines)
