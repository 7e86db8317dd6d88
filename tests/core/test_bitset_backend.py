"""Bitset kernel vs the reference: seeded equivalence properties.

Two families of checks:

* the mask-based ``k_hop_view_graph`` agrees with a brute-force
  transcription of Definition 2 (visible = within ``k`` hops; edges
  between two outermost-ring nodes are invisible);
* every coverage predicate of :mod:`repro.core.coverage` returns the
  same verdicts as its twin in :mod:`repro.check.reference` on the same
  view — the property the byte-identical forward-set guarantee rests on
  — on 100 random views (graph seeds 0–49 and 500–549), and
  ``GenericStatic`` global-view forward sets match a whole run under
  :func:`~repro.check.reference.substituted` on the Figure-1 and a
  >50-node random-grid fixture.

A call counter on the reference's ranking helper shows that the
reference leg, and only it, ran the reference.
"""

import random

import pytest

from repro.check import reference
from repro.core import coverage
from repro.core.priority import DegreePriority, IdPriority, NcrPriority
from repro.core.views import global_view, local_view
from repro.graph.generators import random_grid_network
from repro.graph.paperfigs import figure1
from repro.graph.topology import Topology

SEEDS = range(50)
BACKENDS = ("bitset", "sets")


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


def _count_reference_calls(monkeypatch):
    """Count calls into the reference's higher-priority ranking.

    Every reference predicate reaches it (the strong condition of a node
    with no neighbor aside), and the kernel never does.
    """
    calls = []
    rank = reference._higher_priority_nodes

    def counted(view, v):
        calls.append(v)
        return rank(view, v)

    monkeypatch.setattr(reference, "_higher_priority_nodes", counted)
    return calls


def check_backends_agree(monkeypatch, make_view, evaluate):
    """``evaluate`` gives one answer on one view under the kernel
    (:mod:`repro.core.coverage`) and under :mod:`repro.check.reference`.

    The counter shows the reference ran for the reference leg only.
    """
    calls = _count_reference_calls(monkeypatch)
    view = make_view()
    kernel = evaluate(view, coverage)
    assert not calls
    assert evaluate(view, reference) == kernel
    assert calls


def predicate_verdicts(view, impl):
    return {
        v: (
            impl.uncovered_pairs(view, v),
            impl.coverage_condition(view, v),
            impl.strong_coverage_condition(view, v),
            impl.span_condition(view, v),
            impl.span_condition(view, v, max_intermediates=1),
        )
        for v in view.graph.nodes()
    }


def component_sets(view, impl):
    return {
        v: frozenset(
            frozenset(c) for c in impl.higher_priority_components(view, v)
        )
        for v in view.graph.nodes()
    }


def _cases(view_offset, second_view_offset):
    """``(graph_seed, view_seed)`` per seed, then a second sample on
    graph seeds offset by 500; each case is named by its graph seed."""
    return [
        pytest.param(s, s + view_offset, id=str(s)) for s in SEEDS
    ] + [
        pytest.param(s + 500, s + second_view_offset, id=str(s + 500))
        for s in SEEDS
    ]


@pytest.mark.parametrize("graph_seed, view_seed", _cases(2000, 4000))
def test_predicates_agree_across_backends(graph_seed, view_seed, monkeypatch):
    graph = _random_graph(graph_seed)
    check_backends_agree(
        monkeypatch,
        lambda: _random_view(graph, random.Random(view_seed)),
        predicate_verdicts,
    )


@pytest.mark.parametrize("graph_seed, view_seed", _cases(3000, 5000))
def test_components_agree_across_backends(graph_seed, view_seed, monkeypatch):
    graph = _random_graph(graph_seed)
    check_backends_agree(
        monkeypatch,
        lambda: _random_view(graph, random.Random(view_seed)),
        component_sets,
    )


def _check_invisible_ranked(monkeypatch, graph, hops, invisible):
    assert invisible not in local_view(graph, 1, hops, IdPriority()).graph
    check_backends_agree(
        monkeypatch,
        lambda: local_view(graph, 1, hops, IdPriority()),
        lambda view, impl: frozenset(
            frozenset(c)
            for c in impl.higher_priority_components(view, invisible)
        ),
    )


def test_invisible_node_still_ranked(monkeypatch):
    """Kernel and reference handle v outside the view graph (invisible
    rank): a 4-cycle seen from 1 hop."""
    graph = Topology(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
    _check_invisible_ranked(monkeypatch, graph, 1, 3)


def test_invisible_node_still_ranked_on_path(monkeypatch):
    """The same on a 7-node path seen from 2 hops: 4 and beyond lie
    outside the view graph."""
    graph = Topology(edges=[(i, i + 1) for i in range(1, 7)])
    _check_invisible_ranked(monkeypatch, graph, 2, 5)


def _forward_sets(topology, on_backend):
    """``GenericStatic`` global-view forward sets per backend and mode;
    the ``sets`` leg runs on the reference."""
    from repro.algorithms.generic import GenericStatic
    from repro.sim.engine import SimulationEnvironment

    out = {}
    for backend in BACKENDS:
        with on_backend(backend):
            env = SimulationEnvironment(topology, IdPriority())
            protocols = {}
            for strong in (False, True):
                protocol = GenericStatic(hops=None, strong=strong)
                protocol.prepare(env)
                protocols[strong] = protocol.forward_set
        out[backend] = protocols
    return out


def test_forward_sets_identical_on_figure1(on_backend):
    results = _forward_sets(figure1().topology, on_backend)
    assert results["bitset"] == results["sets"]


def test_forward_sets_identical_on_random_grid(on_backend):
    network = random_grid_network(12, 0.7, random.Random(5))
    assert network.node_count > 50
    results = _forward_sets(network.topology, on_backend)
    assert results["bitset"] == results["sets"]
