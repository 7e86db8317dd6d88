"""Recorded ``edge_flips`` streams: JSONL round-trip and delta replay.

A mobility sweep is fully determined by its base deployment and the
per-step link-flip lists — positions along the way only matter through
the flips they cause.  :class:`FlipTrace` captures exactly that:
the base positions and radius plus one :class:`FlipStep` per step.
A trace can be

* **recorded** from a live model (:func:`record_flip_trace`),
* serialised to/from JSONL byte-identically (``to_jsonl_lines`` /
  ``from_jsonl_lines`` and the file variants), and
* **replayed** as a :meth:`~repro.graph.mobility.RandomWaypointModel.
  snapshot_deltas`-compatible stream (:meth:`FlipTrace.replay`), so the
  serial incremental sweep can A/B schemes on the *identical* workload
  without re-running the mobility model, and each worker group of
  ``run_trace_sweep(..., jobs=N)`` can replay the whole trace on its
  own topology copy.

Replayed :class:`~repro.graph.mobility.SnapshotDelta` entries carry the
**base** positions throughout (adjacency is authoritative; per-step
positions are not recorded).  Byte identity of the JSONL round-trip
rests on ``json`` float serialisation using ``repr``, which round-trips
every finite float exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from .geometry import Point
from .mobility import RandomWaypointModel, SnapshotDelta
from .unit_disk import UnitDiskGraph, build_unit_disk_graph

__all__ = ["FlipStep", "FlipTrace", "record_flip_trace"]

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

    @property
    def flip_count(self) -> int:
        """Total links flipped this step."""
        return len(self.added) + len(self.removed)


@dataclass(frozen=True)
class FlipTrace:
    """A base deployment plus its recorded per-step link flips."""

    positions: Dict[int, Point]
    radius: float
    steps: Tuple[FlipStep, ...]

    def replay(self, extra_radii: Iterable[int] = ()) -> Iterator[SnapshotDelta]:
        """Re-drive the trace through one mutable :class:`Topology`.

        Builds the base unit-disk graph, then applies each step's flips
        through :meth:`Topology.apply_delta` and yields the same
        :class:`~repro.graph.mobility.SnapshotDelta` stream a live
        model would produce — ``report`` is ``None`` on flip-free steps
        and ``extra_radii`` is forwarded for callers that need
        :meth:`DeltaReport.dirty_at` at their own radii.
        """
        base = build_unit_disk_graph(self.positions, self.radius)
        topology = base.topology
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
                graph=UnitDiskGraph(
                    topology=topology,
                    positions=self.positions,
                    radius=self.radius,
                ),
                added_edges=tuple(entry.added),
                removed_edges=tuple(entry.removed),
                report=report,
                flip_count=entry.flip_count,
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
        after a whole step line raises too, naming both counts.
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
            for node, xy in header["positions"].items()
        }
        steps = []
        for line in iterator:
            if not line.strip():
                continue
            payload = json.loads(line)
            if payload["step"] != len(steps):
                raise ValueError(
                    f"flip trace out of order: expected step {len(steps)}, "
                    f"got step {payload['step']}"
                )
            steps.append(
                FlipStep(
                    step=payload["step"],
                    time=payload["time"],
                    added=tuple(
                        (edge[0], edge[1]) for edge in payload["added"]
                    ),
                    removed=tuple(
                        (edge[0], edge[1]) for edge in payload["removed"]
                    ),
                )
            )
        if len(steps) != header["steps"]:
            raise ValueError(
                f"flip trace truncated: header promises {header['steps']} "
                f"steps, found {len(steps)}"
            )
        return FlipTrace(
            positions=positions,
            radius=header["radius"],
            steps=tuple(steps),
        )

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


def record_flip_trace(
    model: RandomWaypointModel, steps: int, dt: float
) -> FlipTrace:
    """Record ``steps`` steps of ``model`` as a replayable trace.

    Consumes the model (its RNG advances exactly as a live sweep's
    would), capturing the base positions before the first step so
    :meth:`FlipTrace.replay` rebuilds the identical base topology.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    base_positions = dict(model.positions())
    recorded = []
    for snap in model.snapshot_deltas(dt, steps):
        recorded.append(
            FlipStep(
                step=snap.step,
                time=snap.time,
                added=tuple(snap.added_edges),
                removed=tuple(snap.removed_edges),
            )
        )
    return FlipTrace(
        positions=base_positions,
        radius=model.radius,
        steps=tuple(recorded),
    )
