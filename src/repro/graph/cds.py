"""Dominating-set and connected-dominating-set (CDS) toolkit.

The correctness target of every broadcast algorithm in the paper is that the
visited nodes form a CDS (Theorem 1).  This module provides:

* verification oracles (:func:`is_dominating_set`, :func:`is_cds`) used by
  the test suite and the experiment harness to check every broadcast run,
* the classic greedy set-cover routine that Dominant Pruning and MPR use to
  pick designated forward neighbors,
* a Guha–Khuller-style global greedy CDS construction, the "global
  information" baseline the paper's introduction discusses,
* an exact minimum-CDS search for small graphs, used as a test oracle and to
  measure approximation quality in ablation benchmarks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from .topology import Topology

__all__ = [
    "is_dominating_set",
    "is_cds",
    "greedy_set_cover",
    "greedy_cds",
    "minimum_cds_bruteforce",
]


def is_dominating_set(graph: Topology, candidate: Iterable[int]) -> bool:
    """Whether every node is in ``candidate`` or adjacent to a member."""
    members = set(candidate)
    missing = members - set(graph.nodes())
    if missing:
        raise KeyError(f"nodes not in graph: {sorted(missing)}")
    for node in graph.nodes():
        if node in members:
            continue
        if not (graph.neighbors(node) & members):
            return False
    return True


def is_cds(graph: Topology, candidate: Iterable[int]) -> bool:
    """Whether ``candidate`` is a *connected* dominating set of ``graph``.

    Follows the paper's conventions for degenerate cases: on a complete
    graph "there is no need of a forward node", so the empty set counts as a
    CDS there (one transmission from the source reaches everyone); on any
    other graph the empty set dominates nothing and is rejected.
    """
    members = set(candidate)
    if not members:
        return graph.is_complete()
    return is_dominating_set(graph, members) and graph.is_connected_subset(
        members
    )


def greedy_set_cover(
    universe: Iterable[int],
    candidates: Dict[int, Set[int]],
    tie_break: Optional[Sequence[int]] = None,
) -> List[int]:
    """Greedy set cover: repeatedly pick the candidate covering most.

    This is the selection loop of Dominant Pruning and MPR: each candidate
    ``w`` has an *effective* coverage ``|N(w) ∩ Y|`` over the remaining
    uncovered universe ``Y``; the candidate with the maximum effective
    coverage is selected, ties broken by smallest id (or by the order given
    in ``tie_break``).

    Returns the chosen candidate ids in selection order.  Raises
    ``ValueError`` when the union of all candidate sets does not cover the
    universe — callers constructed an impossible designation problem.
    """
    uncovered = set(universe)
    reachable = set()
    for covered in candidates.values():
        reachable |= covered
    if not uncovered <= reachable:
        raise ValueError(
            f"universe not coverable; uncovered remainder "
            f"{sorted(uncovered - reachable)}"
        )
    order: Dict[int, int] = {}
    if tie_break is not None:
        order = {node: rank for rank, node in enumerate(tie_break)}
    chosen: List[int] = []
    remaining = dict(candidates)
    while uncovered:
        best = max(
            remaining,
            key=lambda w: (
                len(remaining[w] & uncovered),
                -order.get(w, w),
            ),
        )
        gain = remaining[best] & uncovered
        if not gain:  # pragma: no cover - guarded by the coverability check
            raise ValueError("greedy set cover stalled")
        chosen.append(best)
        uncovered -= gain
        del remaining[best]
    return chosen


def greedy_cds(graph: Topology) -> Set[int]:
    """A global greedy CDS in the spirit of Guha and Khuller's algorithm.

    Grows a connected "gray/black" region from a maximum-degree seed: at
    each step the gray or black-adjacent white-covering node that whitens
    the most nodes is colored black.  Black nodes form the CDS.  This is the
    centralised, global-information baseline that local pruning schemes are
    compared against.
    """
    nodes = graph.nodes()
    if not nodes:
        return set()
    if len(nodes) == 1:
        return set(nodes)
    if not graph.is_connected():
        raise ValueError("greedy_cds requires a connected graph")
    if graph.is_complete():
        return set()

    white: Set[int] = set(nodes)
    gray: Set[int] = set()
    black: Set[int] = set()

    def whitening(node: int) -> int:
        return len((graph.closed_neighbors(node)) & white)

    seed = max(nodes, key=lambda v: (graph.degree(v), -v))
    black.add(seed)
    covered = graph.closed_neighbors(seed)
    gray |= covered - black
    white -= covered

    while white:
        # Candidates keeping the black region connected: gray nodes.  On a
        # connected graph some gray node always touches a white node (the
        # white/covered boundary edge cannot end at a black node, or its
        # white endpoint would have been gray), so progress is guaranteed.
        best = max(gray, key=lambda v: (whitening(v), -v))
        gray.discard(best)
        black.add(best)
        newly = graph.closed_neighbors(best)
        gray |= (newly - black) & (white | gray)
        white -= newly
    return black


def minimum_cds_bruteforce(
    graph: Topology, max_size: Optional[int] = None
) -> Optional[FrozenSet[int]]:
    """The smallest CDS by exhaustive search (exponential; small graphs only).

    Returns ``None`` when no CDS of size up to ``max_size`` exists (only
    possible on disconnected graphs).  On complete graphs returns the empty
    set, mirroring :func:`is_cds`.
    """
    nodes = graph.nodes()
    if graph.is_complete():
        return frozenset()
    limit = max_size if max_size is not None else len(nodes)
    for size in range(1, limit + 1):
        for candidate in combinations(nodes, size):
            if is_cds(graph, candidate):
                return frozenset(candidate)
    return None
