"""Core of the paper's contribution: priorities, views, coverage conditions."""

from .status import DESIGNATED, INVISIBLE, UNVISITED, VISITED, status_name
from .priority import (
    DegreePriority,
    IdPriority,
    NcrPriority,
    PriorityKey,
    PriorityScheme,
    make_key,
    scheme_by_name,
)
from .views import View, global_view, local_view, super_view
from .coverage import (
    coverage_condition,
    higher_priority_components,
    uncovered_pairs,
    span_condition,
    strong_coverage_condition,
)
from .conservative import (
    conservative_forward_set,
    conservative_local_view,
    conservative_view_graph,
)
from .maxmin import max_min_node, max_min_path
from .refine import prune_cds
from .unionfind import DisjointSet

__all__ = [
    "DESIGNATED",
    "INVISIBLE",
    "UNVISITED",
    "VISITED",
    "status_name",
    "DegreePriority",
    "IdPriority",
    "NcrPriority",
    "PriorityKey",
    "PriorityScheme",
    "make_key",
    "scheme_by_name",
    "View",
    "global_view",
    "local_view",
    "super_view",
    "coverage_condition",
    "higher_priority_components",
    "uncovered_pairs",
    "span_condition",
    "strong_coverage_condition",
    "conservative_forward_set",
    "conservative_local_view",
    "conservative_view_graph",
    "prune_cds",
    "max_min_node",
    "max_min_path",
    "DisjointSet",
]
