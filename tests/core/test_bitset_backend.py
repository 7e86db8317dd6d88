"""Bitset kernel vs reference backends: 50-seed equivalence properties.

Two families of checks:

* the mask-based ``k_hop_view_graph`` agrees with a brute-force
  transcription of Definition 2 (visible = within ``k`` hops; edges
  between two outermost-ring nodes are invisible);
* every coverage predicate returns the same verdicts under
  ``REPRO_COVERAGE_BACKEND=bitset`` and ``=sets`` on equal views — the
  property the byte-identical forward-set guarantee rests on — and
  ``GenericStatic`` global-view forward sets match on the Figure-1 and
  a >50-node random-grid fixture.

A view binds its backend on first use, so each backend's view is built
after its env var is set.  A call counter on the ``sets`` component
decomposition shows which path each view ran, and that the binding holds
until the view graph mutates.
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
from repro.core.views import global_view, local_view, view_cache
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


def _count_sets_calls(monkeypatch):
    """Count calls into the ``sets`` backend's component decomposition.

    Every ``sets`` predicate reaches it on a fresh view, and the
    ``bitset`` kernel never does.
    """
    calls = []
    compute = coverage_module._components_compute_sets

    def counted(view, v):
        calls.append(v)
        return compute(view, v)

    monkeypatch.setattr(coverage_module, "_components_compute_sets", counted)
    return calls


def check_backends_agree(monkeypatch, make_view, evaluate):
    """``evaluate`` gives one answer on a view bound to each backend.

    Each view comes from ``make_view`` after its backend is selected, and
    the counter shows the ``sets`` path ran for the ``sets`` view only.
    """
    calls = _count_sets_calls(monkeypatch)
    results = {}
    for backend in ("bitset", "sets"):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
        assert coverage_backend() == backend
        before = len(calls)
        results[backend] = evaluate(make_view())
        assert (len(calls) > before) == (backend == "sets")
    assert results["bitset"] == results["sets"]


def predicate_verdicts(view):
    return {
        v: (
            uncovered_pairs(view, v),
            coverage_condition(view, v),
            strong_coverage_condition(view, v),
            span_condition(view, v),
            span_condition(view, v, max_intermediates=1),
        )
        for v in view.graph.nodes()
    }


def component_sets(view):
    return {
        v: frozenset(frozenset(c) for c in higher_priority_components(view, v))
        for v in view.graph.nodes()
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_predicates_agree_across_backends(seed, monkeypatch):
    graph = _random_graph(seed)
    check_backends_agree(
        monkeypatch,
        lambda: _random_view(graph, random.Random(seed + 2000)),
        predicate_verdicts,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_components_agree_across_backends(seed, monkeypatch):
    graph = _random_graph(seed)
    check_backends_agree(
        monkeypatch,
        lambda: _random_view(graph, random.Random(seed + 3000)),
        component_sets,
    )


def test_unknown_backend_rejected(monkeypatch):
    for backend in ("turbo", "numpy"):
        monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)
        with pytest.raises(ValueError, match="'bitset', 'sets'"):
            coverage_backend()


def test_invisible_node_still_ranked(monkeypatch):
    """Both backends handle v outside the view graph (invisible rank)."""
    graph = Topology(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
    assert 3 not in local_view(graph, 1, 1, IdPriority()).graph
    check_backends_agree(
        monkeypatch,
        lambda: local_view(graph, 1, 1, IdPriority()),
        lambda view: frozenset(
            frozenset(c) for c in higher_priority_components(view, 3)
        ),
    )


def test_backend_binds_once_per_view(monkeypatch):
    """A view keeps its first backend; a view built after a flip, or one
    whose graph mutated since, reads the variable afresh."""
    calls = _count_sets_calls(monkeypatch)
    graph = _random_graph(7)
    nodes = graph.nodes()
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "bitset")
    bound = global_view(graph, IdPriority())
    before = predicate_verdicts(bound)
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "sets")
    assert predicate_verdicts(bound) == before
    assert component_sets(bound) == component_sets(
        global_view(graph, IdPriority())
    )
    assert calls == nodes  # only the fresh view ran the sets path
    del calls[:]
    u, w = next(
        (u, w) for u in nodes for w in nodes
        if u < w and not graph.has_edge(u, w)
    )
    graph.apply_delta(added_edges=[(u, w)])
    assert not view_cache(bound)  # no memo survives the mutation
    after = predicate_verdicts(bound)
    assert calls  # the re-bound view ran the sets path
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "bitset")
    assert after == predicate_verdicts(global_view(graph, IdPriority()))


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
