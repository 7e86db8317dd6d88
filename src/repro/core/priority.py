"""Priority schemes (paper Section 4.4).

A node's priority is the lexicographic tuple ``(S(v), metric..., id(v))``:
broadcast status first, then the scheme's tie-ordered metrics, then the
distinct node id as the final tie-breaker.  The paper evaluates three
schemes, ordered by the cost of collecting them:

* **0-hop**: node id only — free, least effective;
* **1-hop**: node degree (ties broken by id) — one extra exchange round;
* **2-hop**: neighborhood connectivity ratio ``ncr(v)`` (ties broken by
  degree, then id) — two extra rounds, most effective.

A scheme computes, for each node, the *metric* portion of the tuple from
the deployment graph; views prepend the status component.  MPR's
"designating time" priority is handled inside the MPR protocol because it
is defined per broadcast, not per topology.
"""

from __future__ import annotations

import random

from abc import ABC, abstractmethod
from typing import Dict, Tuple

from ..graph.topology import Topology

__all__ = [
    "PriorityScheme",
    "IdPriority",
    "DegreePriority",
    "NcrPriority",
    "RandomEpochPriority",
    "PriorityKey",
    "make_key",
    "scheme_by_name",
]

#: A fully assembled priority key: ``(status, *metrics, node_id)``.
PriorityKey = Tuple[float, ...]


class PriorityScheme(ABC):
    """Computes the metric portion of every node's priority tuple."""

    #: Short name used by the experiment configs and the CLI.
    name: str = "abstract"

    #: Number of metric components the scheme emits (used to pad the keys
    #: of invisible nodes so tuples stay comparable).
    arity: int = 0

    #: Rounds of "hello" exchange needed *beyond* plain k-hop topology
    #: collection (paper: ID +0, Degree +1, NCR +2).
    extra_rounds: int = 0

    #: Hop radius within which an edge change can alter a node's metric,
    #: or ``None`` when unknown.  ``metric_of(v)`` may change after an
    #: edge flip only if a flipped endpoint lies within this many hops
    #: of ``v`` — 0 for id/degree (only an endpoint's own degree moves),
    #: 1 for ncr (the flipped edge must lie inside ``N[v]``).  The
    #: incremental sweep runner uses ``k + metric_locality`` as its
    #: decision-cache invalidation radius; schemes that leave this
    #: ``None`` (custom metrics with unknown reach) force a full
    #: re-decision per step, which is always safe.
    metric_locality: "int | None" = None

    @abstractmethod
    def metrics(self, graph: Topology) -> Dict[int, Tuple[float, ...]]:
        """Metric tuple for every node of ``graph``."""

    def metric_of(self, graph: Topology, node: int) -> Tuple[float, ...]:
        """Metric tuple for a single node."""
        return self.metrics(graph)[node]

    def padding(self) -> Tuple[float, ...]:
        """The all-zero metric used for invisible nodes."""
        return (0.0,) * self.arity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class IdPriority(PriorityScheme):
    """0-hop priority: the node id alone orders nodes."""

    name = "id"
    arity = 0
    extra_rounds = 0
    metric_locality = 0

    def metrics(self, graph: Topology) -> Dict[int, Tuple[float, ...]]:
        return {node: () for node in graph.nodes()}


class DegreePriority(PriorityScheme):
    """1-hop priority: higher degree wins, ties broken by id."""

    name = "degree"
    arity = 1
    extra_rounds = 1
    metric_locality = 0

    def metrics(self, graph: Topology) -> Dict[int, Tuple[float, ...]]:
        return {node: (float(graph.degree(node)),) for node in graph.nodes()}


class NcrPriority(PriorityScheme):
    """2-hop priority: higher neighborhood connectivity ratio wins.

    Ties are broken by node degree and then id, as the paper prescribes.
    """

    name = "ncr"
    arity = 2
    extra_rounds = 2
    metric_locality = 1

    def metrics(self, graph: Topology) -> Dict[int, Tuple[float, ...]]:
        return {
            node: (
                graph.neighborhood_connectivity_ratio(node),
                float(graph.degree(node)),
            )
            for node in graph.nodes()
        }


class RandomEpochPriority(PriorityScheme):
    """Random priorities, redrawn per scheme instance (one *epoch*).

    Every instantiation samples a fresh uniform metric per node, so a
    workload that rebuilds the scheme per broadcast rotates the forward
    duty across nodes — the energy-fairness mechanism behind Span's
    residual-energy backoff, in its purest form.  Within one epoch the
    order is fixed and total, so every coverage-condition guarantee
    holds unchanged.
    """

    name = "random-epoch"
    arity = 1
    extra_rounds = 1  # one exchange to advertise the drawn value
    metric_locality = 0  # drawn per epoch, independent of topology

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def metrics(self, graph: Topology) -> Dict[int, Tuple[float, ...]]:
        rng = random.Random(self._seed)
        return {
            node: (rng.random(),) for node in sorted(graph.nodes())
        }


def make_key(
    status: float, metrics: Tuple[float, ...], node_id: int
) -> PriorityKey:
    """Assemble the lexicographic priority key ``(S, metric..., id)``."""
    return (status, *metrics, float(node_id))


_SCHEMES = {
    IdPriority.name: IdPriority,
    DegreePriority.name: DegreePriority,
    NcrPriority.name: NcrPriority,
}


def scheme_by_name(name: str) -> PriorityScheme:
    """Instantiate a scheme from its short name (``id``/``degree``/``ncr``)."""
    try:
        return _SCHEMES[name]()
    except KeyError as exc:
        raise ValueError(
            f"unknown priority scheme {name!r}; choose from {sorted(_SCHEMES)}"
        ) from exc
