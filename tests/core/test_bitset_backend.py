"""Bitset kernel vs reference backends: 50-seed equivalence properties.

Two families of checks:

* the mask-based ``k_hop_view_graph`` agrees with a brute-force
  transcription of Definition 2 (visible = within ``k`` hops; edges
  between two outermost-ring nodes are invisible);
* every coverage predicate returns the same verdicts under
  ``REPRO_COVERAGE_BACKEND=bitset`` and ``=sets`` on shared views — the
  property the byte-identical forward-set guarantee rests on — and
  ``GenericStatic`` global-view forward sets match on the Figure-1 and
  a >50-node random-grid fixture.

Views are shared across backends on purpose: memo keys are
backend-qualified, so flipping the env var mid-view must be safe.
"""

import random

import pytest

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
from repro.graph.generators import random_grid_network
from repro.graph.paperfigs import figure1
from repro.graph.topology import Topology

SEEDS = range(50)


def _random_graph(seed: int) -> Topology:
    """A random connected graph (spanning tree plus extra edges)."""
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


def _definition2_view_graph(graph: Topology, center: int, k: int) -> Topology:
    """Brute-force Definition 2: ring-to-ring edges are invisible."""
    hops = {center: 0}
    frontier = [center]
    for hop in range(1, k + 1):
        nxt = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in hops:
                    hops[neighbor] = hop
                    nxt.append(neighbor)
        frontier = nxt
    expected = Topology(nodes=hops)
    for u in hops:
        for w in graph.neighbors(u):
            if w in hops and (hops[u] < k or hops[w] < k):
                expected.add_edge(u, w)
    return expected


@pytest.mark.parametrize("seed", SEEDS)
def test_k_hop_view_graph_matches_definition2(seed):
    graph = _random_graph(seed)
    rng = random.Random(seed + 1000)
    k = rng.choice([1, 2, 3])
    center = rng.choice(graph.nodes())
    actual = graph.k_hop_view_graph(center, k)
    expected = _definition2_view_graph(graph, center, k)
    assert set(actual.nodes()) == set(expected.nodes())
    assert set(actual.edges()) == set(expected.edges())


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


@pytest.mark.parametrize("seed", SEEDS)
def test_predicates_agree_across_backends(seed, monkeypatch):
    graph = _random_graph(seed)
    rng = random.Random(seed + 2000)
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

    bitset = _with_backend(monkeypatch, "bitset", verdicts)
    sets = _with_backend(monkeypatch, "sets", verdicts)
    assert bitset == sets


@pytest.mark.parametrize("seed", SEEDS)
def test_components_agree_across_backends(seed, monkeypatch):
    graph = _random_graph(seed)
    rng = random.Random(seed + 3000)
    view = _random_view(graph, rng)

    def components():
        return {
            v: frozenset(
                frozenset(c) for c in higher_priority_components(view, v)
            )
            for v in view.graph.nodes()
        }

    bitset = _with_backend(monkeypatch, "bitset", components)
    sets = _with_backend(monkeypatch, "sets", components)
    assert bitset == sets


def test_unknown_backend_rejected(monkeypatch):
    for backend in ("turbo", "numpy"):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
        with pytest.raises(ValueError):
            coverage_backend()


def test_invisible_node_still_ranked(monkeypatch):
    """Both backends handle v outside the view graph (invisible rank)."""
    graph = Topology(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
    view = local_view(graph, 1, 1, IdPriority())
    assert 3 not in view.graph

    def components():
        return frozenset(
            frozenset(c) for c in higher_priority_components(view, 3)
        )

    bitset = _with_backend(monkeypatch, "bitset", components)
    sets = _with_backend(monkeypatch, "sets", components)
    assert bitset == sets


def _forward_sets(topology, monkeypatch):
    """``GenericStatic`` global-view forward sets per backend and mode."""
    from repro.algorithms.generic import GenericStatic
    from repro.sim.engine import SimulationEnvironment

    out = {}
    for backend in ("bitset", "sets"):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
        env = SimulationEnvironment(topology, IdPriority())
        protocols = {}
        for strong in (False, True):
            protocol = GenericStatic(hops=None, strong=strong)
            protocol.prepare(env)
            protocols[strong] = protocol.forward_set
        out[backend] = protocols
    return out


def test_forward_sets_identical_on_figure1(monkeypatch):
    results = _forward_sets(figure1().topology, monkeypatch)
    assert results["bitset"] == results["sets"]


def test_forward_sets_identical_on_random_grid(monkeypatch):
    network = random_grid_network(12, 0.7, random.Random(5))
    assert network.node_count > 50
    results = _forward_sets(network.topology, monkeypatch)
    assert results["bitset"] == results["sets"]
