"""Recorded ``edge_flips`` streams: JSONL round-trip and delta replay.

A mobility sweep is fully determined by its base deployment and the
per-step link-flip lists — positions along the way only matter through
the flips they cause.  :class:`FlipTrace` captures exactly that:
the base positions and radius plus one :class:`FlipStep` per step.
A trace can be

* **recorded** from a live model (:func:`record_flip_trace`),
* serialised to/from JSONL byte-identically (``to_jsonl_lines`` /
  ``from_jsonl_lines`` and the file variants), and
* **replayed** as a stream of :class:`SnapshotDelta` steps over one
  mutable :class:`~repro.graph.topology.Topology`
  (:meth:`FlipTrace.replay`), which the incremental sweep
  :func:`~repro.experiments.runner.run_trace_sweep` consumes — in
  process, or once per worker group on the group's own topology copy.

Replay is adjacency only: per-step positions are not recorded.  Byte
identity of the JSONL round-trip rests on ``json`` float serialisation
using ``repr``, which round-trips every finite float exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .geometry import Point
from .mobility import RandomWaypointModel
from .topology import DeltaReport, Topology
from .unit_disk import build_unit_disk_graph, edge_flips

__all__ = ["FlipStep", "FlipTrace", "SnapshotDelta", "record_flip_trace"]

_FORMAT = "repro-fliptrace"
_VERSION = 2

Edge = Tuple[int, int]


@dataclass(frozen=True)
class FlipStep:
    """One recorded step: the links that crossed the radius threshold."""

    step: int
    time: float
    added: Tuple[Edge, ...]
    removed: Tuple[Edge, ...]


@dataclass(frozen=True)
class SnapshotDelta:
    """One replayed step: its flips, applied to the replay's topology.

    ``topology`` is the *same mutable* :class:`Topology` object across
    every step of one :meth:`FlipTrace.replay` iteration, mutated in
    place through ``apply_delta`` so its query cache survives for every
    node outside the dirty set.  ``report`` is ``None`` on steps where
    no link flipped (the topology is untouched).
    """

    step: int
    time: float
    topology: Topology
    added_edges: Tuple[Edge, ...]
    removed_edges: Tuple[Edge, ...]
    report: Optional[DeltaReport]


@dataclass(frozen=True)
class FlipTrace:
    """A base deployment plus its recorded per-step link flips."""

    positions: Dict[int, Point]
    radius: float
    steps: Tuple[FlipStep, ...]

    def replay(self, extra_radii: Iterable[int] = ()) -> Iterator[SnapshotDelta]:
        """Re-drive the trace through one mutable :class:`Topology`.

        Builds the base unit-disk graph, then applies each step's flips
        through :meth:`Topology.apply_delta` and yields one
        :class:`SnapshotDelta` per step.  ``extra_radii`` is forwarded
        for callers that need :meth:`DeltaReport.dirty_at` at their own
        radii (e.g. a sweep's decision radius).
        """
        topology = build_unit_disk_graph(self.positions, self.radius).topology
        radii = tuple(sorted(dict.fromkeys(extra_radii)))
        for entry in self.steps:
            report = None
            if entry.added or entry.removed:
                report = topology.apply_delta(
                    added_edges=list(entry.added),
                    removed_edges=list(entry.removed),
                    extra_radii=radii,
                )
            yield SnapshotDelta(
                step=entry.step,
                time=entry.time,
                topology=topology,
                added_edges=entry.added,
                removed_edges=entry.removed,
                report=report,
            )

    def to_jsonl_lines(self) -> List[str]:
        """The trace as JSONL lines: one header, then one line per step.

        Node and step order follow the trace's own ordering, keys
        serialise sorted, and floats serialise via ``repr``, so
        ``from_jsonl_lines`` followed by ``to_jsonl_lines`` reproduces
        the exact same bytes.
        """
        header = {
            "format": _FORMAT,
            "version": _VERSION,
            "radius": self.radius,
            "steps": len(self.steps),
            "positions": {
                str(node): [p.x, p.y] for node, p in self.positions.items()
            },
        }
        lines = [json.dumps(header, separators=(",", ":"), sort_keys=True)]
        for entry in self.steps:
            lines.append(
                json.dumps(
                    {
                        "step": entry.step,
                        "time": entry.time,
                        "added": [list(edge) for edge in entry.added],
                        "removed": [list(edge) for edge in entry.removed],
                    },
                    separators=(",", ":"),
                    sort_keys=True,
                )
            )
        return lines

    @staticmethod
    def from_jsonl_lines(lines: Iterable[str]) -> "FlipTrace":
        """Rebuild a trace from :meth:`to_jsonl_lines` output.

        Steps must run ``0, 1, 2, ...``: a gap (a lost interior line)
        raises ``ValueError`` naming the expected step, as does a line
        cut mid-JSON.  The header records the step count, so a trace cut
        after a whole step line raises too, naming both counts.  A
        header or step line missing a field raises ``ValueError`` naming
        the field, and so does a flip naming a node the header does not
        place, naming the step and the edge.
        """
        iterator = iter(lines)
        try:
            header = json.loads(next(iterator))
        except StopIteration:
            raise ValueError("empty flip trace: missing header line") from None
        if header.get("format") != _FORMAT:
            raise ValueError(
                f"not a {_FORMAT} stream: format={header.get('format')!r}"
            )
        if header.get("version") != _VERSION:
            raise ValueError(
                f"unsupported {_FORMAT} version {header.get('version')!r}"
            )
        positions = {
            int(node): Point(xy[0], xy[1])
            for node, xy in _field(header, "positions", "header").items()
        }
        radius = _field(header, "radius", "header")
        promised = _field(header, "steps", "header")
        steps = []
        for line in iterator:
            if not line.strip():
                continue
            payload = json.loads(line)
            where = f"step {len(steps)}"
            step = _field(payload, "step", where)
            if step != len(steps):
                raise ValueError(
                    f"flip trace out of order: expected step {len(steps)}, "
                    f"got step {step}"
                )
            steps.append(
                FlipStep(
                    step=step,
                    time=_field(payload, "time", where),
                    added=_edges(payload, "added", where, positions),
                    removed=_edges(payload, "removed", where, positions),
                )
            )
        if len(steps) != promised:
            raise ValueError(
                f"flip trace truncated: header promises {promised} "
                f"steps, found {len(steps)}"
            )
        return FlipTrace(positions=positions, radius=radius, steps=tuple(steps))

    def to_jsonl(self, path: str) -> None:
        """Write the trace to ``path`` as JSONL (one object per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line)
                handle.write("\n")

    @staticmethod
    def from_jsonl(path: str) -> "FlipTrace":
        """Load a trace written by :meth:`to_jsonl`."""
        with open(path, "r", encoding="utf-8") as handle:
            return FlipTrace.from_jsonl_lines(handle)


def _field(payload: object, key: str, where: str) -> object:
    """``payload[key]``, or a ``ValueError`` naming the missing field."""
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"flip trace {where} has no {key!r} field")
    return payload[key]


def _edges(
    payload: object, key: str, where: str, positions: Dict[int, Point]
) -> Tuple[Edge, ...]:
    """A step line's ``key`` flips, each between two placed nodes."""
    edges = tuple((edge[0], edge[1]) for edge in _field(payload, key, where))
    for edge in edges:
        if edge[0] not in positions or edge[1] not in positions:
            raise ValueError(
                f"flip trace {where}: {key} edge {edge} names a node "
                "the header does not place"
            )
    return edges


def record_flip_trace(
    model: RandomWaypointModel, steps: int, dt: float
) -> FlipTrace:
    """Record ``steps`` steps of ``model`` as a replayable trace.

    Consumes the model (only :meth:`RandomWaypointModel.advance` draws
    from its RNG).  The base positions are captured before the first
    step; each step advances the model by ``dt`` and diffs the new
    positions against one topology kept current through
    :meth:`Topology.apply_delta`, so :meth:`FlipTrace.replay` rebuilds
    the identical adjacency at every step.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    positions = model.positions()
    topology = build_unit_disk_graph(positions, model.radius).topology
    recorded = []
    for step in range(steps):
        model.advance(dt)
        added, removed = edge_flips(model.positions(), model.radius, topology)
        if added or removed:
            topology.apply_delta(added_edges=added, removed_edges=removed)
        recorded.append(
            FlipStep(
                step=step,
                time=model.time,
                added=tuple(added),
                removed=tuple(removed),
            )
        )
    return FlipTrace(
        positions=positions,
        radius=model.radius,
        steps=tuple(recorded),
    )
