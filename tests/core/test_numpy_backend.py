"""Retired numpy word-table backend: the name is rejected, and every
remaining backend still agrees on the checks that once covered it.

``REPRO_COVERAGE_BACKEND=numpy`` must raise the same ``ValueError`` as
any other unknown name.  The 50-seed predicate and component suites run
over every entry of ``coverage._BACKENDS`` on views drawn with their own
seed offsets, so they sample different views from the matching suites
in ``test_bitset_backend.py``.
"""

import random

import pytest

from repro.core import coverage as coverage_module
from repro.core.coverage import (
    coverage_backend,
    coverage_condition,
    higher_priority_components,
    span_condition,
    strong_coverage_condition,
    uncovered_pairs,
)
from repro.core.priority import DegreePriority, IdPriority, NcrPriority
from repro.core.views import global_view, local_view
from repro.graph.topology import Topology

SEEDS = range(50)
BACKENDS = coverage_module._BACKENDS


def _random_graph(seed: int) -> Topology:
    rng = random.Random(seed)
    n = rng.randint(6, 22)
    graph = Topology(nodes=range(n))
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        graph.add_edge(order[i], rng.choice(order[:i]))
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    return graph


def _random_view(graph, rng):
    scheme = rng.choice([IdPriority(), DegreePriority(), NcrPriority()])
    nodes = graph.nodes()
    visited = set(rng.sample(nodes, rng.randint(0, len(nodes) // 2)))
    designated = set(
        rng.sample(nodes, rng.randint(0, len(nodes) // 3))
    ) - visited
    if rng.random() < 0.5:
        return global_view(graph, scheme, visited, designated)
    return local_view(
        graph, rng.choice(nodes), rng.choice([1, 2, 3]), scheme,
        visited, designated,
    )


def _with_backend(monkeypatch, backend, fn):
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
    assert coverage_backend() == backend
    return fn()


def _agree(results):
    first, *rest = results.values()
    return all(other == first for other in rest)


@pytest.mark.parametrize("seed", SEEDS)
def test_predicates_agree_across_all_backends(seed, monkeypatch):
    graph = _random_graph(seed + 500)
    rng = random.Random(seed + 4000)
    view = _random_view(graph, rng)

    def verdicts():
        out = {}
        for v in view.graph.nodes():
            out[v] = (
                uncovered_pairs(view, v),
                coverage_condition(view, v),
                strong_coverage_condition(view, v),
                span_condition(view, v),
                span_condition(view, v, max_intermediates=1),
            )
        return out

    results = {
        backend: _with_backend(monkeypatch, backend, verdicts)
        for backend in BACKENDS
    }
    assert _agree(results)


@pytest.mark.parametrize("seed", SEEDS)
def test_components_agree_across_all_backends(seed, monkeypatch):
    graph = _random_graph(seed + 500)
    rng = random.Random(seed + 5000)
    view = _random_view(graph, rng)

    def components():
        return {
            v: frozenset(
                frozenset(c) for c in higher_priority_components(view, v)
            )
            for v in view.graph.nodes()
        }

    results = {
        backend: _with_backend(monkeypatch, backend, components)
        for backend in BACKENDS
    }
    assert _agree(results)


def test_invisible_node_still_ranked(monkeypatch):
    """All backends handle v outside the view graph (invisible rank)."""
    # 2-hop view of a 7-node path: 4 and beyond lie outside the view.
    graph = Topology(edges=[(i, i + 1) for i in range(1, 7)])
    view = local_view(graph, 1, 2, IdPriority())
    assert 5 not in view.graph

    def components():
        return frozenset(
            frozenset(c) for c in higher_priority_components(view, 5)
        )

    results = {
        backend: _with_backend(monkeypatch, backend, components)
        for backend in BACKENDS
    }
    assert _agree(results)


def test_unknown_backend_still_rejected(monkeypatch):
    """The error names the live backends, so a stale setting is fixable."""
    assert "numpy" not in BACKENDS
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "numpy")
    with pytest.raises(ValueError, match="'bitset', 'sets'"):
        coverage_backend()
